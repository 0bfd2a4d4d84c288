//! The two fit workloads: ingest → proximity → DP training → durable
//! `.spm` publish, repeated for a fixed share of the run, then quality
//! evaluation and the serving phase on the published model.

use crate::serve::{serve_phase, ServePlan};
use crate::trace::{SpanId, Tracer};
use crate::{
    cpu_seconds, file_bytes, median, quantile, secs, vm_hwm_mib, Args, Report, QUIET_QUANTILE,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use se_privgemb::SePrivGEmb;
use sp_datasets::{generators, PaperDataset};
use sp_dp::{BudgetedAccountant, PrivacyBudget};
use sp_eval::{auc_from_scores, score_dot, struc_equ, LinkSplit, PairSelection};
use sp_graph::{Graph, NodeId, StreamingCsr};
use sp_linalg::DenseMatrix;
use sp_mem::MemTracker;
use sp_model::checkpoint::{latest_valid_checkpoint, train_with_checkpoints};
use sp_model::{ModelFile, Provenance};
use sp_proximity::{EdgeProximity, ProximityKind};
use sp_skipgram::{TrainConfig, TrainReport, Trainer};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Share of `--seconds` the fit workloads spend in the publish loop;
/// the rest goes to the serving phase. Ingest (the set-up) repeats
/// before the loop and between its repetitions, so the `setup_s`
/// median spans the loop.
const FIT_SHARE: f64 = 0.6;
/// Held-out share of edges for `link_auc`.
const TEST_FRACTION: f64 = 0.1;
/// Node pairs `struc_equ` samples. Pairs with a hub dominate the
/// correlation on the heavy-tailed graphs; 2M pairs draw every node
/// about 40 times on `fit-outofcore`.
const STRUC_EQU_PAIRS: usize = 2_000_000;

/// `fit-dw`: BlogCatalog stand-in at 0.3 scale.
const DW_SCALE: f64 = 0.3;
const DW_EPOCHS: usize = 1;
const DW_THREADS: usize = 2;
const DW_INGEST_REPS: usize = 3;

/// `fit-outofcore`: Holme–Kim graph.
const HK_NODES: usize = 100_000;
const HK_M: usize = 10;
const HK_TRIAD: f64 = 0.7;
const HK_DIM: usize = 8;
const HK_BAND_ROWS: usize = 4096;
const HK_SHARD_EDGES: usize = 65_536;
const HK_CHECKPOINTS: u64 = 4;
const HK_INGEST_REPS: usize = 6;

/// The paper's §VI-A configuration (r=128, B=128, k=5, η=0.1, C=2,
/// σ=5, ε=3.5, δ=1e-5, non-zero perturbation).
fn paper_config(seed: u64) -> TrainConfig {
    TrainConfig {
        seed,
        ..TrainConfig::default()
    }
}

/// One publish repetition.
struct Rep {
    publish_s: f64,
    prox_s: f64,
    train_s: f64,
    train_cpu_s: f64,
    write_s: f64,
    traced: bool,
    report: TrainReport,
}

/// Repeats `rep` until `seconds` have passed (at least twice), with
/// tracing on for every other repetition of a traced run, and runs
/// `between` before each repetition and after the last. Each published
/// file must read back bit-identical, and every repetition must publish
/// the same bytes as the first.
///
/// `peak_rss_mib` is `VmHWM` right after the first repetition: ingest
/// plus one fit in a fresh process. Each later fit leaves the process
/// larger (on `fit-dw`, `VmRSS` between fits grew from 37 to 119 MiB
/// over eight fits), so the high-water mark at the end of the run would
/// grow with the number of repetitions that fit in it, and so with host
/// speed.
fn publish_loop(
    seconds: f64,
    model_path: &Path,
    tr: &Tracer,
    report: &mut Report,
    mut between: impl FnMut() -> Result<(), String>,
    mut rep: impl FnMut(SpanId) -> Result<(Rep, ModelFile), String>,
) -> Result<Vec<Rep>, String> {
    let traced_run = tr.enabled();
    let mut reps: Vec<Rep> = Vec::new();
    let mut first_bytes: Option<Vec<u8>> = None;
    let start = Instant::now();
    while reps.len() < 2 || secs(start.elapsed()) < seconds {
        between()?;
        let traced = traced_run && reps.len().is_multiple_of(2);
        tr.set_enabled(traced);
        let root = tr.begin("publish.rep", None);
        let (mut r, model) = rep(root)?;
        tr.end(root);
        r.traced = traced;
        let bytes = model.to_bytes();
        drop(model);
        let read = ModelFile::read(model_path).map(|m| m.to_bytes());
        report.check(read.as_ref().ok() == Some(&bytes), || {
            format!(
                "published .spm does not read back bit-identical ({:?})",
                read.err()
            )
        });
        match &first_bytes {
            None => first_bytes = Some(bytes),
            Some(b) => report.check(*b == bytes, || {
                "a repeated fit published different bytes".to_string()
            }),
        }
        eprintln!(
            "[publish] rep {}: {:.3} s (proximity {:.3}, train {:.3}, write {:.3})",
            reps.len(),
            r.publish_s,
            r.prox_s,
            r.train_s,
            r.write_s
        );
        reps.push(r);
        if reps.len() == 1 {
            report.set("peak_rss_mib", vm_hwm_mib());
        }
        tr.set_enabled(traced_run);
    }
    between()?;
    Ok(reps)
}

/// Records the publish-loop metrics shared by both fit workloads.
fn record_reps(reps: &[Rep], cfg: &TrainConfig, edges: usize, report: &mut Report) {
    // Every repetition does the same work (`publish_loop` checks that
    // each publishes the same bytes), so times take the quiet quantile.
    let quiet = |f: fn(&Rep) -> f64| quantile(reps.iter().map(f).collect(), QUIET_QUANTILE);
    report.set("publish_s", quiet(|r| r.publish_s));
    report.set("proximity.compute_s", quiet(|r| r.prox_s));
    let train_s = quiet(|r| r.train_s);
    report.set("skipgram.train_s", train_s);
    report.set("skipgram.train_cpu_s", quiet(|r| r.train_cpu_s));
    report.set("model.write_s", quiet(|r| r.write_s));
    let traced: Vec<f64> = reps
        .iter()
        .filter(|r| r.traced)
        .map(|r| r.publish_s)
        .collect();
    let untraced: Vec<f64> = reps
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.publish_s)
        .collect();
    if !traced.is_empty() && !untraced.is_empty() {
        report.set(
            "trace.publish_overhead_s",
            median(&traced) - median(&untraced),
        );
    }

    let tr = &reps[0].report;
    let examples = tr.steps_run as f64 * cfg.batch_size.min(edges) as f64;
    report.set("skipgram.steps", tr.steps_run as f64);
    report.set("skipgram.examples", examples);
    report.set("skipgram.examples_per_s", examples / train_s);
    report.set("dp.epsilon_spent", tr.epsilon_spent);
    let dp_steps = accountant_steps(tr, cfg, edges);
    report.set("dp.steps", dp_steps as f64);
    report.check(tr.epsilon_spent <= cfg.epsilon, || {
        format!(
            "ε spent {} exceeds the budget {}",
            tr.epsilon_spent, cfg.epsilon
        )
    });
    report.check(dp_steps == tr.steps_run, || {
        format!(
            "accountant composed {dp_steps} steps, trainer ran {}",
            tr.steps_run
        )
    });
    report.check(!tr.stopped_by_budget, || {
        "the privacy budget ended training; the epoch count must bind".to_string()
    });
}

/// Replays the trainer's accountant (same budget, sampling rate and
/// noise multiplier) and returns the number of steps whose composed ε
/// equals the reported one bit-for-bit — the steps the DP layer
/// charged for. `u64::MAX` when no step count reproduces it.
fn accountant_steps(report: &TrainReport, cfg: &TrainConfig, edges: usize) -> u64 {
    let batch = cfg.batch_size.min(edges);
    let gamma = (batch as f64 / edges as f64).min(1.0);
    let mut acc =
        BudgetedAccountant::new(PrivacyBudget::new(cfg.epsilon, cfg.delta), gamma, cfg.sigma);
    let want = report.epsilon_spent.to_bits();
    while acc.steps() < report.steps_run.saturating_mul(2) && acc.try_step() {
        if acc.spent().0.to_bits() == want {
            return acc.steps();
        }
    }
    u64::MAX
}

/// `struc_equ` on `g` and inner-product `link_auc` over the held-out
/// pairs, both on the published vectors.
fn evaluate(
    g: &Graph,
    emb: &DenseMatrix,
    pos: &[(NodeId, NodeId)],
    neg: &[(NodeId, NodeId)],
    seed: u64,
    tr: &Tracer,
    report: &mut Report,
) {
    let t = Instant::now();
    let se = tr.scope("eval.struc_equ", None, |_| {
        struc_equ(
            g,
            emb,
            PairSelection::Sampled {
                pairs: STRUC_EQU_PAIRS,
                seed,
            },
        )
    });
    report.set("eval.struc_equ_s", secs(t.elapsed()));
    let t = Instant::now();
    let auc = tr.scope("eval.link_auc", None, |_| {
        let score = |pairs: &[(NodeId, NodeId)]| -> Vec<f64> {
            pairs.iter().map(|&(u, v)| score_dot(emb, u, v)).collect()
        };
        auc_from_scores(&score(pos), &score(neg))
    });
    report.set("eval.link_auc_s", secs(t.elapsed()));
    report.check(se.is_some() && auc.is_some(), || {
        format!("quality undefined: struc_equ {se:?}, link_auc {auc:?}")
    });
    report.set("struc_equ", se.unwrap_or(f64::NAN));
    report.set("link_auc", auc.unwrap_or(f64::NAN));
    eprintln!("[eval] struc_equ {se:?}, link_auc {auc:?}");
}

fn published_vectors(path: &Path) -> Result<DenseMatrix, String> {
    let m = ModelFile::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok(m.payload.vectors().to_dense())
}

fn provenance(report: &TrainReport, cfg: &TrainConfig) -> Provenance {
    Provenance {
        seed: cfg.seed,
        epsilon: report.epsilon_spent,
        delta: cfg.delta,
    }
}

/// Calls `f` `n` (at least 1) times, keeping only the last result, so
/// at most two results are alive at once.
fn repeat<T>(n: usize, mut f: impl FnMut() -> Result<T, String>) -> Result<T, String> {
    let mut last = f()?;
    for _ in 1..n {
        drop(last);
        last = f()?;
    }
    Ok(last)
}

/// Runs `f` in a span, returning its result and wall time in seconds.
fn timed<T>(tr: &Tracer, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = tr.scope(name, parent, |_| f());
    (out, secs(t.elapsed()))
}

/// The serving phase on a fit workload's own model.
fn serve_published(
    args: &Args,
    path: &Path,
    tr: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    serve_phase(
        &ServePlan {
            model_path: path,
            seconds: args.seconds * (1.0 - FIT_SHARE),
            seed: args.seed,
            per_layer: args.trace,
        },
        tr,
        report,
    )
}

/// `fit-dw`: the paper's default fit on the BlogCatalog stand-in.
pub fn fit_dw(args: &Args, work: &Path, tr: &Tracer, report: &mut Report) -> Result<(), String> {
    // --- Inputs: the graph, a 10% link hold-out, the train edge list. ---
    let full = PaperDataset::BlogCatalog.generate(DW_SCALE, args.seed);
    let split = LinkSplit::new(&full, TEST_FRACTION, &mut StdRng::seed_from_u64(args.seed));
    let edges_path = work.join("train.edges");
    sp_graph::io::write_edge_list_file(&split.train, &edges_path)
        .map_err(|e| format!("write edge list: {e}"))?;
    eprintln!(
        "[input] BlogCatalog x{DW_SCALE}: {} nodes, {} train edges, {} held out",
        full.num_nodes(),
        split.train.num_edges(),
        split.test_pos.len()
    );

    // --- Set-up: ingest through sp_graph::io. ---
    let ingest = |times: &mut Vec<f64>| {
        let (r, s) = timed(tr, "graph.ingest", None, || {
            sp_graph::io::read_edge_list_file(&edges_path)
        });
        times.push(s);
        r.map_err(|e| format!("ingest: {e}"))
    };
    let mut ingest_s = Vec::new();
    let (g, id_map) = repeat(DW_INGEST_REPS, || ingest(&mut ingest_s))?;
    report.set("graph.edges", g.num_edges() as f64);
    report.check(g.num_edges() == split.train.num_edges(), || {
        format!(
            "ingested {} edges, wrote {}",
            g.num_edges(),
            split.train.num_edges()
        )
    });
    // Held-out pairs in the ingested graph's ids; a pair whose node has
    // no train edge cannot be scored and is left out.
    let remap = |pairs: &[(NodeId, NodeId)]| -> Vec<(NodeId, NodeId)> {
        pairs
            .iter()
            .filter_map(|&(u, v)| Some((*id_map.get(&(u as u64))?, *id_map.get(&(v as u64))?)))
            .collect()
    };
    let (pos, neg) = (remap(&split.test_pos), remap(&split.test_neg));

    // --- Publish loop. ---
    let kind = ProximityKind::DeepWalk { window: 2 };
    let est = SePrivGEmb::builder()
        .proximity(kind)
        .epochs(DW_EPOCHS)
        .threads(DW_THREADS)
        .seed(args.seed)
        .build();
    let cfg = est.train_config().clone();
    let model_path = work.join("model.spm");
    let mut ingested_edges = Vec::new();
    let between = || {
        let (g, _) = repeat(DW_INGEST_REPS, || ingest(&mut ingest_s))?;
        ingested_edges.push(g.num_edges());
        Ok(())
    };
    let reps = publish_loop(
        args.seconds * FIT_SHARE,
        &model_path,
        tr,
        report,
        between,
        |root| {
            let t0 = Instant::now();
            let (prox, prox_s) = timed(tr, "proximity.compute", root, || {
                EdgeProximity::compute_threads(&g, kind, Some(DW_THREADS))
            });
            let cpu0 = cpu_seconds();
            let (fit, train_s) = timed(tr, "skipgram.train", root, || {
                est.fit_with_proximity(&g, prox)
            });
            let train_cpu_s = cpu_seconds() - cpu0;
            let (written, write_s) = timed(tr, "model.write", root, || {
                let model = ModelFile::from_skipgram(&fit.model, provenance(&fit.report, &cfg));
                model.write_atomic(&model_path).map(|()| model)
            });
            let model = written.map_err(|e| format!("publish: {e}"))?;
            Ok((
                Rep {
                    publish_s: secs(t0.elapsed()),
                    prox_s,
                    train_s,
                    train_cpu_s,
                    write_s,
                    traced: false,
                    report: fit.report,
                },
                model,
            ))
        },
    )?;
    record_reps(&reps, &cfg, g.num_edges(), report);
    report.check(ingested_edges.iter().all(|&e| e == g.num_edges()), || {
        format!("repeated ingests read {ingested_edges:?} edges")
    });
    report.set("setup_s", median(&ingest_s));
    report.set("graph.ingest_s", median(&ingest_s));
    report.set("model.bytes", file_bytes(&model_path) as f64);
    report.set("model.checkpoints", 0.0);
    report.set("model.checkpoint_bytes", 0.0);
    report.count_ops(reps.len() as u64, 0);
    drop(reps);

    // --- Quality, then serving the published model. ---
    let emb = published_vectors(&model_path)?;
    evaluate(&g, &emb, &pos, &neg, args.seed, tr, report);
    serve_published(args, &model_path, tr, report)
}

/// `fit-outofcore`: streamed ingest under a memory tracker, row-banded
/// common-neighbour proximity, edge-sharded checkpointed training.
pub fn fit_outofcore(
    args: &Args,
    work: &Path,
    tr: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    // --- Inputs: a dense-id Holme–Kim edge list with a 10% hold-out. ---
    let mut rng = StdRng::seed_from_u64(args.seed);
    let full = generators::holme_kim(HK_NODES, HK_M, HK_TRIAD, &mut rng);
    let split = LinkSplit::new(&full, TEST_FRACTION, &mut rng);
    let edges_path = work.join("train.edges");
    sp_graph::io::write_edge_list_file(&split.train, &edges_path)
        .map_err(|e| format!("write edge list: {e}"))?;
    eprintln!(
        "[input] Holme-Kim: {} nodes, {} train edges, {} held out",
        full.num_nodes(),
        split.train.num_edges(),
        split.test_pos.len()
    );
    drop(full);

    // --- Set-up: streamed ingest, each under a fresh tracker. ---
    let ingest = |times: &mut Vec<f64>| {
        let tracker = MemTracker::shared();
        let (r, s) = timed(tr, "graph.ingest", None, || -> std::io::Result<Graph> {
            let mut csr = StreamingCsr::with_tracker(HK_NODES, Arc::clone(&tracker));
            let file = std::fs::File::open(&edges_path)?;
            csr.consume_lines(std::io::BufReader::new(file))?;
            Ok(csr.finish())
        });
        times.push(s);
        r.map(|g| (g, tracker)).map_err(|e| format!("ingest: {e}"))
    };
    let mut ingest_s = Vec::new();
    let (g, tracker) = repeat(HK_INGEST_REPS, || ingest(&mut ingest_s))?;
    report.set("graph.edges", g.num_edges() as f64);
    report.check(
        g.num_edges() == split.train.num_edges() && g.num_nodes() == HK_NODES,
        || format!("ingested {} nodes / {} edges", g.num_nodes(), g.num_edges()),
    );
    let pos = split.test_pos.clone();
    let neg = split.test_neg.clone();
    drop(split);

    // --- Publish loop. ---
    let edges = g.num_edges();
    let steps_per_epoch = edges.div_ceil(paper_config(0).batch_size) as u64;
    let every = steps_per_epoch.div_ceil(HK_CHECKPOINTS);
    let ckpt_dir = work.join("checkpoints");
    let cfg = TrainConfig {
        dim: HK_DIM,
        epochs: 1,
        threads: Some(1),
        subgraph_shard_edges: Some(HK_SHARD_EDGES),
        checkpoint_every: Some(every),
        checkpoint_dir: Some(ckpt_dir.clone()),
        ..paper_config(args.seed)
    };
    let model_path = work.join("model.spm");
    let trainer = Trainer::new(cfg.clone());
    let mut ingested_edges = Vec::new();
    let between = || {
        let (g, _) = repeat(HK_INGEST_REPS, || ingest(&mut ingest_s))?;
        ingested_edges.push(g.num_edges());
        Ok(())
    };
    let reps = publish_loop(
        args.seconds * FIT_SHARE,
        &model_path,
        tr,
        report,
        between,
        |root| {
            std::fs::remove_dir_all(&ckpt_dir).ok();
            let t0 = Instant::now();
            let (prox, prox_s) = timed(tr, "proximity.compute", root, || {
                EdgeProximity::compute_blocked(
                    &g,
                    ProximityKind::CommonNeighbors,
                    HK_BAND_ROWS,
                    Some(1),
                    Some(&tracker),
                )
            });
            let cpu0 = cpu_seconds();
            let (run, train_s) = timed(tr, "skipgram.train", root, || {
                train_with_checkpoints(&trainer, &g, &prox, None, false)
            });
            let train_cpu_s = cpu_seconds() - cpu0;
            let run = run.map_err(|e| format!("checkpointed training: {e}"))?;
            let (written, write_s) = timed(tr, "model.write", root, || {
                let model = ModelFile::from_skipgram(&run.model, provenance(&run.report, &cfg));
                model.write_atomic(&model_path).map(|()| model)
            });
            let model = written.map_err(|e| format!("publish: {e}"))?;
            let publish_s = secs(t0.elapsed());
            Ok((
                Rep {
                    publish_s,
                    prox_s,
                    train_s,
                    train_cpu_s,
                    write_s,
                    traced: false,
                    report: run.report,
                },
                model,
            ))
        },
    )?;
    record_reps(&reps, &cfg, edges, report);
    report.check(ingested_edges.iter().all(|&e| e == edges), || {
        format!("repeated ingests read {ingested_edges:?} edges")
    });
    report.set("setup_s", median(&ingest_s));
    report.set("graph.ingest_s", median(&ingest_s));
    report.set(
        "mem.tracked_peak_mib",
        tracker.peak() as f64 / (1024.0 * 1024.0),
    );
    report.set("model.bytes", file_bytes(&model_path) as f64);
    report.count_ops(reps.len() as u64, 0);

    // --- Checkpoints of the last repetition. ---
    let steps = reps[0].report.steps_run;
    let written = steps / every;
    match latest_valid_checkpoint(&ckpt_dir) {
        Ok(Some((path, st))) => {
            report.check(
                st.steps_run == written * every && st.accountant_steps == st.steps_run,
                || {
                    format!(
                        "newest checkpoint at step {} (accountant {}), expected {}",
                        st.steps_run,
                        st.accountant_steps,
                        written * every
                    )
                },
            );
            report.set("model.checkpoints", written as f64);
            report.set(
                "model.checkpoint_bytes",
                (written * file_bytes(&path)) as f64,
            );
        }
        other => report.check(false, || format!("no valid checkpoint: {other:?}")),
    }

    // --- Quality, then serving the published model. ---
    let emb = published_vectors(&model_path)?;
    evaluate(&g, &emb, &pos, &neg, args.seed, tr, report);
    serve_published(args, &model_path, tr, report)
}

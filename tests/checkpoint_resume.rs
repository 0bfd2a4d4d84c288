//! Crash-safe checkpoint/resume: a training run killed at any
//! checkpoint boundary — including mid-epoch, mid-shard points — and
//! resumed from the durable `.spc` trail must reproduce the
//! uninterrupted run **bit for bit**: `W_in`, `W_out`, the training
//! report, and the privacy accountant's raw RDP curve. The composed ε
//! across any crash/resume sequence therefore equals the uninterrupted
//! run's and never exceeds `TrainConfig::epsilon`.
//!
//! Kill schedules are driven by deterministic [`FaultPlan`]s handed to
//! a failing checkpoint sink (in-process, so each test owns its own
//! plan; the env-driven global seams get their own process in
//! `tests/fault_env.rs`). Setting `SP_FAULT_PLAN` to a bare integer
//! seed — as the CI fault matrix does — varies which boundaries the
//! chained test crashes at without changing any assertion.

use rand::rngs::StdRng;
use rand::SeedableRng;
use se_privgemb_suite::datasets::generators;
use se_privgemb_suite::fault::FaultPlan;
use se_privgemb_suite::model::checkpoint::{
    checkpoint_file_name, latest_valid_checkpoint, train_with_checkpoints, write_checkpoint_atomic,
};
use se_privgemb_suite::model::ModelError;
use se_privgemb_suite::skipgram::trainer::TrainerState;
use se_privgemb_suite::skipgram::{SkipGramModel, TrainConfig, TrainReport, Trainer};
use sp_graph::Graph;
use sp_proximity::{EdgeProximity, ProximityKind};
use std::path::PathBuf;

fn graph() -> Graph {
    let mut rng = StdRng::seed_from_u64(7);
    generators::barabasi_albert(80, 3, &mut rng)
}

fn config(threads: usize) -> TrainConfig {
    TrainConfig {
        dim: 12,
        negatives: 3,
        batch_size: 16,
        epochs: 8,
        epsilon: 6.0,
        seed: 41,
        threads: Some(threads),
        checkpoint_every: Some(1),
        ..TrainConfig::default()
    }
}

fn proximity(g: &Graph, threads: usize) -> EdgeProximity {
    EdgeProximity::compute_threads(g, ProximityKind::Degree, Some(threads))
}

fn model_bits(m: &SkipGramModel) -> (Vec<u64>, Vec<u64>) {
    let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect();
    (bits(m.w_in.as_slice()), bits(m.w_out.as_slice()))
}

fn assert_same_run(a: &(SkipGramModel, TrainReport), b: &(SkipGramModel, TrainReport), tag: &str) {
    assert_eq!(model_bits(&a.0), model_bits(&b.0), "{tag}: model diverged");
    assert_eq!(a.1.steps_run, b.1.steps_run, "{tag}: steps diverged");
    assert_eq!(a.1.epochs_run, b.1.epochs_run, "{tag}: epochs diverged");
    assert_eq!(
        a.1.epsilon_spent.to_bits(),
        b.1.epsilon_spent.to_bits(),
        "{tag}: ε diverged"
    );
    assert_eq!(
        a.1.delta_spent.to_bits(),
        b.1.delta_spent.to_bits(),
        "{tag}: δ diverged"
    );
}

/// Runs to completion, recording every checkpoint snapshot in memory.
fn baseline_with_trail(
    cfg: &TrainConfig,
    g: &Graph,
    prox: &EdgeProximity,
) -> ((SkipGramModel, TrainReport), Vec<TrainerState>) {
    let trainer = Trainer::new(cfg.clone());
    let mut trail = Vec::new();
    let mut sink = |st: &TrainerState| {
        trail.push(st.clone());
        Ok(())
    };
    let run = trainer
        .train_checkpointed(g, prox, None, None, &mut sink)
        .expect("recording sink never fails");
    (run, trail)
}

/// Resumes from `state` and runs to completion with a no-op sink.
fn resume_to_end(
    cfg: &TrainConfig,
    g: &Graph,
    prox: &EdgeProximity,
    state: &TrainerState,
) -> (SkipGramModel, TrainReport) {
    let trainer = Trainer::new(cfg.clone());
    let mut sink = |_: &TrainerState| Ok(());
    trainer
        .train_checkpointed(g, prox, None, Some(state), &mut sink)
        .expect("no-op sink never fails")
}

#[test]
fn kill_at_every_checkpoint_boundary_resumes_bit_identically() {
    let g = graph();
    let prox = proximity(&g, 1);
    let cfg = config(1);
    let (baseline, trail) = baseline_with_trail(&cfg, &g, &prox);
    assert!(
        trail.len() >= 4,
        "need several boundaries to kill at, got {}",
        trail.len()
    );
    assert!(baseline.1.epsilon_spent <= cfg.epsilon);

    // With checkpoint_every = 1 the trail includes genuine mid-epoch,
    // mid-shard boundaries — not just epoch ends.
    let steps_per_epoch = g.num_edges().div_ceil(cfg.batch_size) as u64;
    assert!(steps_per_epoch > 1, "graph too small for mid-shard kills");
    assert!(
        trail
            .iter()
            .any(|st| st.step_in_epoch > 0 && st.step_in_epoch < steps_per_epoch),
        "no mid-shard checkpoint in the trail"
    );

    for kill_at in 1..=trail.len() as u64 {
        // The plan kills the checkpoint sink exactly at its
        // `kill_at`-th invocation — a crash at that boundary.
        let plan =
            FaultPlan::parse(&format!("checkpoint.write@nth={kill_at}")).expect("valid fault plan");
        let trainer = Trainer::new(cfg.clone());
        let mut survived: Vec<TrainerState> = Vec::new();
        let mut invocation = 0u64;
        let mut sink = |st: &TrainerState| {
            invocation += 1;
            if plan.should_fail(
                se_privgemb_suite::fault::sites::CHECKPOINT_WRITE,
                invocation,
            ) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "injected crash at checkpoint boundary",
                ));
            }
            survived.push(st.clone());
            Ok(())
        };
        let err = trainer
            .train_checkpointed(&g, &prox, None, None, &mut sink)
            .expect_err("the injected fault must abort training");
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);

        let resumed = match survived.last() {
            // Crash before any durable checkpoint: recovery is a
            // cold start.
            None => Trainer::new(cfg.clone()).train(&g, &prox),
            Some(state) => resume_to_end(&cfg, &g, &prox, state),
        };
        assert_same_run(&baseline, &resumed, &format!("kill at boundary {kill_at}"));
    }
}

#[test]
fn resume_is_thread_count_invariant() {
    let g = graph();
    // The uninterrupted single-threaded run is the reference.
    let (baseline, trail) = baseline_with_trail(&config(1), &g, &proximity(&g, 1));
    let mid = &trail[trail.len() / 2];
    for threads in [1usize, 4] {
        let cfg = config(threads);
        let prox = proximity(&g, threads);
        let resumed = resume_to_end(&cfg, &g, &prox, mid);
        assert_same_run(&baseline, &resumed, &format!("threads={threads}"));
    }
}

#[test]
fn odd_dim_spare_snapshot_at_two_threads_resumes_at_one() {
    // At an odd dimension a step can draw an odd number of deviates, so
    // the polar sampler's spare crosses the step boundary and must ride
    // in the snapshot. Snapshot on the 2-thread pool, resume serially.
    let g = graph();
    let prox = proximity(&g, 1);
    let odd = |threads| TrainConfig {
        dim: 7,
        ..config(threads)
    };
    let (baseline, trail) = baseline_with_trail(&odd(2), &g, &prox);
    let uninterrupted = Trainer::new(odd(1)).train(&g, &prox);
    assert_same_run(&baseline, &uninterrupted, "2 vs 1 threads");
    let pending: Vec<&TrainerState> = trail.iter().filter(|st| st.noise_spare.is_some()).collect();
    assert!(
        !pending.is_empty() && pending.len() < trail.len(),
        "dim 7 must leave a spare behind at some boundaries but not all"
    );
    for state in pending {
        let resumed = resume_to_end(&odd(1), &g, &prox, state);
        let tag = format!("resume at step {}", state.steps_run);
        assert_same_run(&baseline, &resumed, &tag);
        assert_eq!(
            baseline.1.final_loss.to_bits(),
            resumed.1.final_loss.to_bits(),
            "{tag}: loss diverged"
        );
    }
}

/// The seed of `SP_FAULT_PLAN` (bare integer in the CI fault matrix)
/// varies deterministic choices inside tests without changing any
/// assertion.
fn schedule_seed() -> u64 {
    std::env::var("SP_FAULT_PLAN")
        .ok()
        .and_then(|spec| FaultPlan::parse(&spec).ok())
        .map(|plan| plan.seed())
        .unwrap_or(1)
}

#[test]
fn chained_crash_resume_through_spc_files_is_bit_identical() {
    let g = graph();
    let prox = proximity(&g, 1);
    let cfg = config(1);
    let (baseline, trail) = baseline_with_trail(&cfg, &g, &prox);
    let total = trail.len() as u64;
    assert!(total >= 4);

    // Two crash points, placed by the fault-matrix seed: the run dies
    // once early and once late, each time resuming from the real .spc
    // files left on disk.
    let seed = schedule_seed();
    // ≥ 2 so the first segment durably writes at least one checkpoint
    // before dying; ≤ total/2 so the second kill lands strictly later.
    let first_kill = 2 + seed % (total / 2 - 1);
    let second_kill = total / 2 + 1 + (seed / 7) % (total - total / 2);
    let dir = std::env::temp_dir().join(format!("spc_chain_{}_{}", std::process::id(), seed));
    std::fs::remove_dir_all(&dir).ok();
    let mut cfg_disk = cfg.clone();
    cfg_disk.checkpoint_dir = Some(dir.clone());

    let crash_segment = |kill_at: u64, resume_from: Option<&TrainerState>| -> TrainerState {
        let trainer = Trainer::new(cfg_disk.clone());
        let mut last_written: Option<TrainerState> = None;
        let mut invocation = 0u64;
        let mut sink = |st: &TrainerState| -> std::io::Result<()> {
            invocation += 1;
            if invocation == kill_at {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "injected crash",
                ));
            }
            let path = dir.join(checkpoint_file_name(st.steps_run));
            write_checkpoint_atomic(&path, st).map_err(|e| std::io::Error::other(e.to_string()))?;
            last_written = Some(st.clone());
            Ok(())
        };
        trainer
            .train_checkpointed(&g, &prox, None, resume_from, &mut sink)
            .expect_err("the injected crash must abort this segment");
        last_written.expect("at least one checkpoint survived the segment")
    };

    std::fs::create_dir_all(&dir).unwrap();
    crash_segment(first_kill, None);
    let (_, recovered_a) = latest_valid_checkpoint(&dir).unwrap().expect("trail");
    // Crash again further along, resuming from disk state. The second
    // kill is indexed from this segment's own first boundary.
    let remaining_kill = second_kill.saturating_sub(recovered_a.steps_run).max(1);
    crash_segment(remaining_kill, Some(&recovered_a));
    let (_, recovered_b) = latest_valid_checkpoint(&dir).unwrap().expect("trail");
    assert!(recovered_b.steps_run >= recovered_a.steps_run);

    let finished = resume_to_end(&cfg, &g, &prox, &recovered_b);
    assert_same_run(&baseline, &finished, "chained crash/resume");
    assert!(
        finished.1.epsilon_spent <= cfg.epsilon,
        "composed ε {} exceeded budget {}",
        finished.1.epsilon_spent,
        cfg.epsilon
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_newest_checkpoint_falls_back_to_previous() {
    let g = graph();
    let prox = proximity(&g, 1);
    let cfg = config(1);
    let (baseline, trail) = baseline_with_trail(&cfg, &g, &prox);
    let dir = std::env::temp_dir().join(format!("spc_fallback_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let older = &trail[trail.len() - 3];
    let newer = &trail[trail.len() - 2];
    let older_path = dir.join(checkpoint_file_name(older.steps_run));
    let newer_path = dir.join(checkpoint_file_name(newer.steps_run));
    write_checkpoint_atomic(&older_path, older).unwrap();
    write_checkpoint_atomic(&newer_path, newer).unwrap();

    // Tear the newest file: flip one payload bit.
    let mut bytes = std::fs::read(&newer_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&newer_path, &bytes).unwrap();

    let (path, state) = latest_valid_checkpoint(&dir)
        .unwrap()
        .expect("the older checkpoint must survive");
    assert_eq!(path, older_path, "fallback skipped the torn newest file");
    assert_eq!(state.steps_run, older.steps_run);

    // Resuming from the fallback still converges on the baseline bits.
    let resumed = resume_to_end(&cfg, &g, &prox, &state);
    assert_same_run(&baseline, &resumed, "fallback resume");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fingerprint_mismatch_refuses_to_resume() {
    let g = graph();
    let prox = proximity(&g, 1);
    let dir = std::env::temp_dir().join(format!("spc_mismatch_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // A full checkpointed run under config A leaves a trail…
    let mut cfg_a = config(1);
    cfg_a.checkpoint_dir = Some(dir.clone());
    let trainer_a = Trainer::new(cfg_a.clone());
    train_with_checkpoints(&trainer_a, &g, &prox, None, false).unwrap();
    assert!(latest_valid_checkpoint(&dir).unwrap().is_some());

    // …which a different configuration must refuse to adopt.
    let mut cfg_b = config(1);
    cfg_b.sigma = cfg_a.sigma + 1.0;
    cfg_b.checkpoint_dir = Some(dir.clone());
    let trainer_b = Trainer::new(cfg_b);
    let err = train_with_checkpoints(&trainer_b, &g, &prox, None, true)
        .expect_err("a foreign trajectory must not resume");
    match err {
        ModelError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
        other => panic!("expected InvalidData, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_with_checkpoints_resumes_and_prunes() {
    let g = graph();
    let prox = proximity(&g, 1);
    let dir = std::env::temp_dir().join(format!("spc_drive_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut cfg = config(1);
    cfg.checkpoint_every = Some(3);
    cfg.checkpoint_dir = Some(dir.clone());
    let trainer = Trainer::new(cfg.clone());

    let first = train_with_checkpoints(&trainer, &g, &prox, None, false).unwrap();
    assert!(first.resumed_from.is_none());
    assert!(first.report.epsilon_spent <= cfg.epsilon);
    let spc_files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "spc"))
        .collect();
    assert!(
        !spc_files.is_empty() && spc_files.len() <= 2,
        "retention must keep 1–2 checkpoints, found {}",
        spc_files.len()
    );

    // A rerun resumes from the durable trail and lands on the same bits.
    let second = train_with_checkpoints(&trainer, &g, &prox, None, true).unwrap();
    assert!(second.resumed_from.is_some());
    assert_eq!(
        model_bits(&first.model),
        model_bits(&second.model),
        "resumed rerun diverged from the original"
    );
    assert_eq!(
        first.report.epsilon_spent.to_bits(),
        second.report.epsilon_spent.to_bits()
    );
    std::fs::remove_dir_all(&dir).ok();
}

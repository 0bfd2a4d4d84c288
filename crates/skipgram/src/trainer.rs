//! Algorithm 2: the SE-PrivGEmb training loop.
//!
//! Per *step*, the trainer samples `B` subgraphs uniformly without
//! replacement from the pre-computed `G_S` (Algorithm 1), computes the
//! per-example gradients (Eq. 7/8), clips each example's joint
//! gradient to `C`, sums, perturbs according to the
//! [`PerturbStrategy`], and applies the averaged update with learning
//! rate `η`. An *epoch* is `⌈|E|/B⌉` steps (one expected pass over the
//! edge set); the RDP accountant charges each step as one subsampled
//! Gaussian mechanism with rate `γ = B/|E|` and stops training the
//! moment the next step would exceed the `(ε, δ)` budget (lines 8–10).
//!
//! Randomness: the hot loop (noise + batch sampling) uses `SmallRng`
//! seeded from the config — fast and reproducible. A cryptographic
//! generator would be required for a production DP deployment; for
//! reproducing the paper's utility the statistical quality of
//! xoshiro256++ is more than sufficient (see DESIGN.md).

use crate::model::{GradBuffer, SkipGramModel};
use crate::perturb::PerturbStrategy;
use crate::subgraph::{generate_subgraphs, NegativeSampling, Subgraph, SubgraphGen};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sp_dp::{BudgetedAccountant, GaussianSampler, PolarBatch, PrivacyBudget};
use sp_graph::{Graph, NodeId};
use sp_linalg::{vector, DenseMatrix};
use sp_parallel::Phase;
use sp_proximity::EdgeProximity;
use std::io;
use std::path::PathBuf;
use std::sync::{Mutex, RwLock, RwLockReadGuard};

/// Hyper-parameters of Algorithm 2. Defaults are the paper's §VI-A
/// settings (r=128, k=5, B=128, η=0.1, C=2, σ=5, δ=1e-5, ε=3.5,
/// 200 epochs).
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Embedding dimension `r`.
    pub dim: usize,
    /// Negative samples per edge `k`.
    pub negatives: usize,
    /// Batch size `B`.
    pub batch_size: usize,
    /// Learning rate `η`.
    pub learning_rate: f64,
    /// Gradient clipping threshold `C`.
    pub clip: f64,
    /// Noise multiplier `σ`.
    pub sigma: f64,
    /// Target privacy budget ε.
    pub epsilon: f64,
    /// Target failure probability δ.
    pub delta: f64,
    /// Maximum number of epochs (`n_epoch`); an epoch is `⌈|E|/B⌉`
    /// steps.
    pub epochs: usize,
    /// Noise strategy.
    pub strategy: PerturbStrategy,
    /// Negative-sampling scheme for Algorithm 1.
    pub negative_sampling: NegativeSampling,
    /// RNG seed (drives initialisation, sampling, and noise).
    pub seed: u64,
    /// Worker threads for the training step (`None` resolves via
    /// [`sp_parallel::resolve_threads`]: the `SP_THREADS` environment
    /// variable, then the available parallelism).
    ///
    /// The threads form one [`sp_parallel::phase_pool`] for the whole
    /// run. Each step runs two phases on it: the per-example gradients
    /// (while the caller draws the step's noise pairs), then a
    /// row-partitioned pass that sums each touched row's clipped
    /// gradients, adds its noise and applies the update. An explicit
    /// `Some(n > 1)` always uses the pool; an auto-resolved count uses
    /// it only when the batch carries enough arithmetic to amortise
    /// the per-phase hand-off, so toy configs run inline.
    ///
    /// **Determinism contract:** the batch sampler, the RNG half of the
    /// noise (the polar method's accept/reject draws) and the RDP
    /// accountant stay on the caller thread, in stream order; each
    /// row's gradient sum runs in batch-sample order, and its noise
    /// transform and update use the same operations as a serial loop.
    /// So for a fixed seed the trained model and the privacy spend are
    /// byte-identical for every thread count (asserted by
    /// `tests/parallel_determinism.rs`).
    pub threads: Option<usize>,
    /// Out-of-core subgraph mode. `None` (the default) materialises
    /// the whole `G_S` up front, as Algorithm 1 is written. `Some(s)`
    /// keeps only a [`SubgraphGen`] and regenerates each sampled
    /// subgraph on demand from its edge index — peak subgraph memory
    /// drops from `O(|E|·k)` to `O(B·k)`; `s` (≥ 1) is the
    /// edge-partition shard height out-of-core drivers use when they
    /// walk `G_S` shard-by-shard via [`SubgraphGen::range`] (the
    /// trainer's own sampling is per-index and ignores the height).
    ///
    /// Because every subgraph's randomness is derived from its edge
    /// index, both modes draw identical subgraphs: the trained model,
    /// report, and privacy spend are byte-identical for any `s`.
    pub subgraph_shard_edges: Option<usize>,
    /// Crash safety: emit a [`TrainerState`] snapshot to the checkpoint
    /// sink every this many completed steps (`None` disables). The
    /// cadence is not part of the run's identity — changing it between
    /// crash and resume still reproduces the uninterrupted run
    /// bit-for-bit, because snapshots capture the full loop state at a
    /// step boundary.
    pub checkpoint_every: Option<u64>,
    /// Directory the checkpoint layer (`sp_model::checkpoint`) writes
    /// `.spc` files into. The trainer itself never touches the
    /// filesystem; this setting rides along so pipeline layers
    /// ([`crate::Trainer::train_checkpointed`] callers, the CLI,
    /// `sp_dynamic`) know where to persist and resume from.
    pub checkpoint_dir: Option<PathBuf>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            dim: 128,
            negatives: 5,
            batch_size: 128,
            learning_rate: 0.1,
            clip: 2.0,
            sigma: 5.0,
            epsilon: 3.5,
            delta: 1e-5,
            epochs: 200,
            strategy: PerturbStrategy::NonZero,
            negative_sampling: NegativeSampling::UniformNonNeighbor,
            seed: 0x5EED,
            threads: None,
            subgraph_shard_edges: None,
            checkpoint_every: None,
            checkpoint_dir: None,
        }
    }
}

impl TrainConfig {
    /// Validates parameter ranges; returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.dim == 0 {
            return Err("dim must be >= 1".into());
        }
        if self.negatives == 0 {
            return Err("negatives must be >= 1".into());
        }
        if self.batch_size == 0 {
            return Err("batch_size must be >= 1".into());
        }
        if self.learning_rate.is_nan() || self.learning_rate <= 0.0 {
            return Err("learning_rate must be positive".into());
        }
        if self.clip.is_nan() || self.clip <= 0.0 {
            return Err("clip must be positive".into());
        }
        if self.threads == Some(0) {
            return Err("threads must be >= 1 when set".into());
        }
        if self.subgraph_shard_edges == Some(0) {
            return Err("subgraph_shard_edges must be >= 1 when set".into());
        }
        if self.checkpoint_every == Some(0) {
            return Err("checkpoint_every must be >= 1 when set".into());
        }
        if self.strategy.is_private() {
            if self.sigma.is_nan() || self.sigma <= 0.0 {
                return Err("sigma must be positive for private training".into());
            }
            if self.epsilon.is_nan() || self.epsilon <= 0.0 {
                return Err("epsilon must be positive".into());
            }
            if self.delta.is_nan() || self.delta <= 0.0 || self.delta >= 1.0 {
                return Err("delta must be in (0,1)".into());
            }
        }
        Ok(())
    }

    /// FNV-1a hash over every parameter that determines the training
    /// trajectory, plus the graph shape. A checkpoint records this and
    /// resume refuses a mismatch — replaying a snapshot under a
    /// different config would silently produce garbage (or, worse,
    /// mis-account privacy).
    ///
    /// Deliberately excluded, because they never change results:
    /// `threads` (a crash on a 4-core box may resume on 1 core),
    /// `subgraph_shard_edges` (streamed and materialised modes are
    /// bit-identical), and the checkpoint cadence/location themselves.
    pub fn fingerprint(&self, num_nodes: usize, num_edges: usize) -> u64 {
        let strategy = match self.strategy {
            PerturbStrategy::None => 0u64,
            PerturbStrategy::Naive => 1,
            PerturbStrategy::NonZero => 2,
        };
        let sampling = match self.negative_sampling {
            NegativeSampling::UniformNonNeighbor => 0u64,
            NegativeSampling::DegreeProportional => 1,
        };
        let words = [
            0x5350_4345_4B50_5431u64, // "SPCEKPT1": format discriminator
            self.dim as u64,
            self.negatives as u64,
            self.batch_size as u64,
            self.learning_rate.to_bits(),
            self.clip.to_bits(),
            self.sigma.to_bits(),
            self.epsilon.to_bits(),
            self.delta.to_bits(),
            self.epochs as u64,
            strategy,
            sampling,
            self.seed,
            num_nodes as u64,
            num_edges as u64,
        ];
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for w in words {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }
}

/// What happened during training.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Full epochs completed.
    pub epochs_run: usize,
    /// Batch steps completed.
    pub steps_run: u64,
    /// True when the privacy budget, not the epoch cap, ended training.
    pub stopped_by_budget: bool,
    /// ε spent at the target δ (0 for non-private runs).
    pub epsilon_spent: f64,
    /// δ̂ at the target ε (0 for non-private runs).
    pub delta_spent: f64,
    /// Mean per-example loss over the final epoch's sampled batches.
    pub final_loss: f64,
}

/// A bit-exact snapshot of the training loop at a step boundary — the
/// payload of a `.spc` checkpoint (serialised by `sp_model`).
///
/// Everything the loop consumes after a step boundary is either (a)
/// derived deterministically from the config and the graph (subgraph
/// base seed, proximity weights, batch schedule *shape*) or (b)
/// captured here: the counters, the run RNG, the Marsaglia sampler's
/// cached spare, the loss accumulator, both embedding matrices at full
/// `f64` precision, and the raw RDP curve. Restoring (b) and replaying
/// from the boundary therefore reproduces the uninterrupted run
/// bit-for-bit — including the privacy spend, which is restored (not
/// recomputed), so ε can never be double-spent across crashes.
#[derive(Clone, Debug)]
pub struct TrainerState {
    /// Binds the snapshot to a (config, graph shape) pair — see
    /// [`TrainConfig::fingerprint`]. Resume refuses a mismatch.
    pub fingerprint: u64,
    /// Batch steps completed.
    pub steps_run: u64,
    /// Epochs fully completed.
    pub epochs_run: u64,
    /// Steps completed inside the current epoch (the shard cursor of
    /// an out-of-core walk: step `s` covers sampled edge indices of
    /// batch `s`).
    pub step_in_epoch: u64,
    /// xoshiro256++ state of the run RNG.
    pub rng: [u64; 4],
    /// Cached spare deviate of the Gaussian sampler, if present.
    pub noise_spare: Option<f64>,
    /// Final-epoch loss accumulator: sum of per-example losses.
    pub loss_sum: f64,
    /// Final-epoch loss accumulator: number of examples.
    pub loss_count: u64,
    /// Centre embeddings `W_in`, full `f64` precision.
    pub w_in: DenseMatrix,
    /// Context embeddings `W_out`, full `f64` precision.
    pub w_out: DenseMatrix,
    /// Largest order of the accountant's RDP grid (0 when the run is
    /// non-private and carries no accountant).
    pub accountant_orders_max: u64,
    /// Raw accumulated RDP curve (empty for non-private runs).
    pub accountant_rdp: Vec<f64>,
    /// Steps recorded by the accountant.
    pub accountant_steps: u64,
}

/// Receives each boundary [`TrainerState`] during
/// [`Trainer::train_checkpointed`] and persists it; an `Err` aborts
/// the run (a run that cannot checkpoint must not continue past its
/// durability guarantee).
pub type CheckpointSink<'a> = &'a mut dyn FnMut(&TrainerState) -> io::Result<()>;

/// Minimum per-batch work (examples × contexts × dim) before an
/// *auto-resolved* thread count runs the step on the worker pool. The
/// run-scoped pool costs about 1 µs per phase hand-off (two phases per
/// step), but the serial share of a step — batch sampling, row
/// marking, the noise draws — does not shrink with threads. Measured
/// on a 2-vCPU VM (BA graph, 3,000 nodes, 30k edges, k=5, NonZero,
/// 2 epochs, 2 vs 1 threads, medians of 9): work 3,072 (B=128, r=4)
/// ran 1.07× slower, 6,144 (r=8) 0.93×, 12,288 (r=16) 0.90×, 24,576
/// (r=32) 0.74×, 49,152 (r=64) 0.72×, and the paper's §VI-A
/// configuration (r=128 ⇒ 98,304) 0.63×. An explicit
/// `TrainConfig::threads = Some(n>1)` bypasses the heuristic — the
/// caller asked for the pool. The cutover never changes results — only
/// which path computes them.
const PAR_GRAD_MIN_WORK: usize = 8_192;

/// Runs Algorithm 2 on a graph + proximity weighting.
#[derive(Clone, Debug)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer; panics on invalid configuration (the
    /// experiments construct configs programmatically — a typo should
    /// fail fast, not silently train garbage).
    pub fn new(config: TrainConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid TrainConfig: {e}");
        }
        Self { config }
    }

    /// Access to the configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains and returns the model (both embedding matrices — the
    /// published `Θ = {W_in, W_out}`) and a report.
    ///
    /// # Panics
    /// Panics if the graph has no edges (there is nothing to embed).
    pub fn train(&self, g: &Graph, prox: &EdgeProximity) -> (SkipGramModel, TrainReport) {
        self.train_impl(g, prox, None, None, None)
            .expect("training without a checkpoint sink cannot fail")
    }

    /// Trains starting from an existing model (warm start) — the
    /// continual-publishing pattern: the initial model is a previously
    /// *published* (already-DP) artefact, so reusing it is
    /// post-processing and costs no additional budget.
    ///
    /// # Panics
    /// Panics if `initial` does not match the graph's node count or
    /// the configured dimension.
    pub fn train_from(
        &self,
        g: &Graph,
        prox: &EdgeProximity,
        initial: SkipGramModel,
    ) -> (SkipGramModel, TrainReport) {
        assert_eq!(
            initial.num_nodes(),
            g.num_nodes(),
            "warm-start model node count mismatch"
        );
        assert_eq!(
            initial.dim(),
            self.config.dim,
            "warm-start model dimension mismatch"
        );
        self.train_impl(g, prox, Some(initial), None, None)
            .expect("training without a checkpoint sink cannot fail")
    }

    /// Checkpointed (and optionally resumed) training.
    ///
    /// Every [`TrainConfig::checkpoint_every`] completed steps, a
    /// [`TrainerState`] snapshot is handed to `sink` (which persists it
    /// — the trainer itself never touches the filesystem). A sink
    /// error aborts training and is returned: a run that cannot
    /// checkpoint must not silently continue past its durability
    /// guarantee. Passing `resume = Some(state)` restores a snapshot
    /// and continues the run; the final model, report, and privacy
    /// spend are bit-identical to an uninterrupted run of the same
    /// config (see [`TrainerState`]).
    ///
    /// # Errors
    /// `InvalidData` when `resume` does not match this config and
    /// graph; otherwise only errors returned by `sink`.
    pub fn train_checkpointed(
        &self,
        g: &Graph,
        prox: &EdgeProximity,
        initial: Option<SkipGramModel>,
        resume: Option<&TrainerState>,
        sink: CheckpointSink<'_>,
    ) -> io::Result<(SkipGramModel, TrainReport)> {
        self.train_impl(g, prox, initial, resume, Some(sink))
    }

    fn train_impl(
        &self,
        g: &Graph,
        prox: &EdgeProximity,
        initial: Option<SkipGramModel>,
        resume: Option<&TrainerState>,
        mut sink: Option<CheckpointSink<'_>>,
    ) -> io::Result<(SkipGramModel, TrainReport)> {
        let cfg = &self.config;
        assert!(g.num_edges() > 0, "cannot train on an edgeless graph");
        assert_eq!(
            prox.len(),
            g.num_edges(),
            "proximity weights must cover every edge"
        );

        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        // Line 2: G_S via Algorithm 1 — materialised, or (out-of-core
        // mode) a generator that regenerates each sampled subgraph on
        // demand. Both consume exactly one base-seed draw from the run
        // RNG and derive every subgraph from its edge index, so the
        // two modes see identical subgraphs and identical downstream
        // RNG streams: the trained model is byte-identical either way.
        let subgraphs: SubgraphSource<'_> = if cfg.subgraph_shard_edges.is_some() {
            let base_seed: u64 = rng.gen();
            SubgraphSource::Streamed(SubgraphGen::new(
                g,
                cfg.negatives,
                cfg.negative_sampling,
                base_seed,
            ))
        } else {
            SubgraphSource::Materialised(generate_subgraphs(
                g,
                cfg.negatives,
                cfg.negative_sampling,
                &mut rng,
            ))
        };
        // Line 3: initialise Θ (or warm-start from a published model;
        // the fresh init is still drawn to keep the RNG stream — and
        // therefore batch/noise sequences — identical in both paths).
        let fresh = SkipGramModel::new(g.num_nodes(), cfg.dim, &mut rng);
        let mut model = initial.unwrap_or(fresh);

        let num_edges = g.num_edges();
        let batch = cfg.batch_size.min(num_edges);
        let steps_per_epoch = num_edges.div_ceil(batch);
        let gamma = (batch as f64 / num_edges as f64).min(1.0);

        let mut accountant = if cfg.strategy.is_private() {
            Some(BudgetedAccountant::new(
                PrivacyBudget::new(cfg.epsilon, cfg.delta),
                gamma,
                cfg.sigma,
            ))
        } else {
            None
        };
        let mut noise = GaussianSampler::new();

        // The step runs on the run-scoped pool when the caller asked for
        // threads explicitly, or when an auto-resolved count meets the
        // per-batch work bar; every path computes the same bits (see
        // `TrainConfig::threads`).
        let threads = sp_parallel::resolve_threads(cfg.threads);
        let pool_threads = if threads > 1
            && (cfg.threads.is_some() || batch * (cfg.negatives + 1) * cfg.dim >= PAR_GRAD_MIN_WORK)
        {
            threads
        } else {
            1
        };

        let mut steps_run: u64 = 0;
        let mut epochs_run = 0usize;
        let mut stopped_by_budget = false;
        let mut loss_stats = (0.0f64, 0u64);

        // Resume: the prefix above replayed the same seeded draws as
        // the original run (subgraph source, fresh init), so the
        // derived subgraph streams are identical; now overwrite every
        // piece of live loop state with the snapshot.
        let fingerprint = cfg.fingerprint(g.num_nodes(), g.num_edges());
        let mut resume_step = 0usize;
        if let Some(st) = resume {
            if st.fingerprint != fingerprint {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "checkpoint fingerprint does not match this config and graph \
                     (refusing to resume: the trajectory would diverge)",
                ));
            }
            model = SkipGramModel {
                w_in: st.w_in.clone(),
                w_out: st.w_out.clone(),
            };
            rng = SmallRng::from_state(st.rng);
            noise = GaussianSampler::from_spare(st.noise_spare);
            if let Some(acc) = accountant.as_mut() {
                *acc = BudgetedAccountant::resume(
                    PrivacyBudget::new(cfg.epsilon, cfg.delta),
                    gamma,
                    cfg.sigma,
                    st.accountant_orders_max,
                    st.accountant_rdp.clone(),
                    st.accountant_steps,
                )
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            }
            steps_run = st.steps_run;
            epochs_run = st.epochs_run as usize;
            loss_stats = (st.loss_sum, st.loss_count);
            resume_step = st.step_in_epoch as usize;
        }
        let start_epoch = epochs_run;

        let step = PooledStep::new(
            cfg,
            model,
            (rng, noise),
            &subgraphs,
            prox,
            batch,
            pool_threads,
        );
        let trained = sp_parallel::phase_pool(
            pool_threads,
            |phase| step.work(phase),
            |pool| -> io::Result<()> {
                'training: for epoch in start_epoch..cfg.epochs {
                    let final_epoch = epoch + 1 == cfg.epochs;
                    // First (possibly resumed) epoch starts at the
                    // snapshot's step cursor; all later epochs at 0.
                    let first_step = std::mem::take(&mut resume_step);
                    for step_in_epoch in first_step..steps_per_epoch {
                        // Lines 8–10: stop when the budget would be exceeded.
                        if let Some(acc) = accountant.as_mut() {
                            if !acc.try_step() {
                                stopped_by_budget = true;
                                break 'training;
                            }
                        }
                        // Line 5 on the caller; line 6's per-example
                        // gradients on the pool while the caller draws
                        // the noise; line 7 row-partitioned on the pool.
                        step.prepare(num_edges, final_epoch);
                        pool.run();
                        if final_epoch {
                            step.fold_losses(&mut loss_stats);
                        }
                        step.set_phase(StepPhase::Apply);
                        pool.run();
                        steps_run += 1;
                        // Checkpoint at the step boundary: the loop state
                        // is exactly (counters, RNG, noise spare, loss,
                        // model, accountant) — everything TrainerState
                        // captures.
                        if let (Some(every), Some(sink)) = (cfg.checkpoint_every, sink.as_mut()) {
                            if steps_run % every == 0 {
                                let (rng, noise_spare) = step.rng_state();
                                let model = step.model.read().expect("model lock poisoned");
                                let snapshot = TrainerState {
                                    fingerprint,
                                    steps_run,
                                    epochs_run: epochs_run as u64,
                                    step_in_epoch: (step_in_epoch + 1) as u64,
                                    rng,
                                    noise_spare,
                                    loss_sum: loss_stats.0,
                                    loss_count: loss_stats.1,
                                    w_in: model.w_in.clone(),
                                    w_out: model.w_out.clone(),
                                    accountant_orders_max: accountant
                                        .as_ref()
                                        .map(|a| a.max_order())
                                        .unwrap_or(0),
                                    accountant_rdp: accountant
                                        .as_ref()
                                        .map(|a| a.rdp_raw().to_vec())
                                        .unwrap_or_default(),
                                    accountant_steps: accountant
                                        .as_ref()
                                        .map(|a| a.steps())
                                        .unwrap_or(0),
                                };
                                drop(model);
                                sink(&snapshot)?;
                            }
                        }
                    }
                    epochs_run += 1;
                }
                Ok(())
            },
        );
        trained?;
        let model = step.model.into_inner().expect("model lock poisoned");

        let (epsilon_spent, delta_spent) =
            accountant.as_ref().map(|a| a.spent()).unwrap_or((0.0, 0.0));
        let final_loss = if loss_stats.1 > 0 {
            loss_stats.0 / loss_stats.1 as f64
        } else {
            f64::NAN
        };
        Ok((
            model,
            TrainReport {
                epochs_run,
                steps_run,
                stopped_by_budget,
                epsilon_spent,
                delta_spent,
                final_loss,
            },
        ))
    }
}

/// Where the trainer's subgraphs come from: the whole materialised
/// `G_S`, or an on-demand generator (out-of-core mode). Both hand out
/// the same subgraph for the same index.
enum SubgraphSource<'g> {
    Materialised(Vec<Subgraph>),
    Streamed(SubgraphGen<'g>),
}

impl SubgraphSource<'_> {
    /// Writes subgraph `i` into `out`, reusing its buffers.
    fn fill(&self, i: usize, out: &mut Subgraph) {
        match self {
            SubgraphSource::Materialised(v) => {
                let sg = &v[i];
                out.center = sg.center;
                out.positive = sg.positive;
                out.negatives.clear();
                out.negatives.extend_from_slice(&sg.negatives);
                out.edge_index = sg.edge_index;
            }
            SubgraphSource::Streamed(gen) => gen.generate_into(i, out),
        }
    }
}

/// Number of fixed-boundary gradient chunks a batch is split into:
/// enough for load balance on a few cores, few enough that the apply
/// phase holds a read guard on each slot without allocating.
const GRAD_CHUNKS: usize = 16;

/// Matrix elements per apply-phase chunk (16 rows at r=128): large
/// enough to amortise the model write lock each chunk takes.
const APPLY_CHUNK_ELEMS: usize = 2048;

/// Marks a node whose row the current step does not touch.
const UNTOUCHED: u32 = u32::MAX;

/// Which half of a pooled step the workers run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StepPhase {
    /// Per-example loss, gradient and clip, in fixed chunks of the
    /// batch; worker 0 first draws the step's noise pairs.
    Grad,
    /// Per touched row: sum the clipped gradients in batch order, add
    /// the noise, apply the update.
    Apply,
}

/// One row the step updates.
#[derive(Clone, Copy, Debug)]
enum RowRef {
    In(NodeId),
    Out(NodeId),
}

/// The caller's description of one step, written between phases and
/// read by every worker during them.
struct StepPlan {
    phase: StepPhase,
    /// Whether the per-example losses are needed (`final_loss`).
    final_epoch: bool,
    /// The sampled subgraphs, in batch order.
    examples: Vec<Subgraph>,
    /// Updated rows, in noise order: for `None`/`NonZero` the touched
    /// `W_in` rows then the touched `W_out` rows, each in order of
    /// first touch; for `Naive` every row, `W_in` and `W_out`
    /// interleaved. Row `j` takes deviates `j·r .. (j+1)·r`.
    rows: Vec<RowRef>,
    /// `contrib[starts[j]..starts[j + 1]]`: the examples whose gradient
    /// touches `rows[j]`, in batch order.
    starts: Vec<usize>,
    contrib: Vec<u32>,
    /// Index into `rows` of each node's `W_in` / `W_out` row, or
    /// [`UNTOUCHED`].
    in_slot: Vec<u32>,
    out_slot: Vec<u32>,
    /// `Naive`: `rows` is fixed to every row of both matrices.
    every_row: bool,
}

impl StepPlan {
    fn new(num_nodes: usize, batch: usize, every_row: bool) -> Self {
        let mut plan = Self {
            phase: StepPhase::Grad,
            final_epoch: false,
            examples: (0..batch)
                .map(|_| Subgraph {
                    center: 0,
                    positive: 0,
                    negatives: Vec::new(),
                    edge_index: 0,
                })
                .collect(),
            rows: Vec::new(),
            starts: Vec::new(),
            contrib: Vec::new(),
            in_slot: vec![UNTOUCHED; num_nodes],
            out_slot: vec![UNTOUCHED; num_nodes],
            every_row,
        };
        assert!(
            2 * num_nodes < UNTOUCHED as usize,
            "row slots are u32: too many nodes"
        );
        if every_row {
            for v in 0..num_nodes {
                plan.in_slot[v] = 2 * v as u32;
                plan.out_slot[v] = 2 * v as u32 + 1;
                plan.rows.push(RowRef::In(v as NodeId));
                plan.rows.push(RowRef::Out(v as NodeId));
            }
        }
        plan
    }

    /// Finds the rows the sampled examples touch, from the subgraphs
    /// alone, and lists each row's contributing examples.
    fn mark_rows(&mut self) {
        let Self {
            examples,
            rows,
            starts,
            contrib,
            in_slot,
            out_slot,
            every_row,
            ..
        } = self;
        if !*every_row {
            for r in rows.drain(..) {
                match r {
                    RowRef::In(v) => in_slot[v as usize] = UNTOUCHED,
                    RowRef::Out(v) => out_slot[v as usize] = UNTOUCHED,
                }
            }
            for sg in examples.iter() {
                let slot = &mut in_slot[sg.center as usize];
                if *slot == UNTOUCHED {
                    *slot = rows.len() as u32;
                    rows.push(RowRef::In(sg.center));
                }
            }
            for sg in examples.iter() {
                for v in ctx_rows(sg) {
                    let slot = &mut out_slot[v as usize];
                    if *slot == UNTOUCHED {
                        *slot = rows.len() as u32;
                        rows.push(RowRef::Out(v));
                    }
                }
            }
        }
        // Counting sort of (row, example) pairs by row; stable, so each
        // row's examples stay in batch order.
        let slots_of = |sg| row_slots(sg, in_slot, out_slot);
        starts.clear();
        starts.resize(rows.len() + 1, 0);
        for sg in examples.iter() {
            for j in slots_of(sg) {
                starts[j + 1] += 1;
            }
        }
        for j in 1..starts.len() {
            starts[j] += starts[j - 1];
        }
        contrib.resize(starts[rows.len()], 0);
        for (e, sg) in examples.iter().enumerate() {
            for j in slots_of(sg) {
                contrib[starts[j]] = e as u32;
                starts[j] += 1;
            }
        }
        // Each `starts[j]` advanced to the end of row j, which is where
        // row j + 1 starts.
        starts.rotate_right(1);
        starts[0] = 0;
    }
}

/// Indices into `StepPlan::rows` of the rows one example touches.
fn row_slots<'a>(
    sg: &'a Subgraph,
    in_slot: &'a [u32],
    out_slot: &'a [u32],
) -> impl Iterator<Item = usize> + 'a {
    std::iter::once(in_slot[sg.center as usize])
        .chain(ctx_rows(sg).map(|v| out_slot[v as usize]))
        .map(|s| s as usize)
}

/// The distinct `W_out` rows one example touches: the positive, then
/// each negative not seen before — the rows of its
/// [`GradBuffer::ctx_rows`].
fn ctx_rows(sg: &Subgraph) -> impl Iterator<Item = NodeId> + '_ {
    let negs = &sg.negatives;
    std::iter::once(sg.positive).chain(
        negs.iter()
            .enumerate()
            .filter(move |&(q, n)| *n != sg.positive && !negs[..q].contains(n))
            .map(|(_, &n)| n),
    )
}

/// Clipped per-example gradients and losses of one batch chunk.
struct GradSlot {
    bufs: Vec<GradBuffer>,
    losses: Vec<f64>,
}

/// Everything one training step shares between the caller and the
/// pool workers, kept for the whole run.
///
/// Determinism: only the caller consumes the run RNG (batch sampling
/// between phases, the noise pairs at the start of the gradient
/// phase), in the same order as a serial loop. Each example's gradient
/// is computed alone, and each row's sum, noise and update are
/// computed by one worker with the same operations in the same order
/// as the serial loop, so every thread count gives the same bits.
struct PooledStep<'r> {
    subgraphs: &'r SubgraphSource<'r>,
    weights: &'r [f64],
    clip: f64,
    dim: usize,
    noise_std: f64,
    scale: f64,
    grad_chunk: usize,
    apply_rows: usize,
    plan: RwLock<StepPlan>,
    model: RwLock<SkipGramModel>,
    grads: Vec<RwLock<GradSlot>>,
    /// The run RNG and the Gaussian sampler's spare: caller only.
    draws: Mutex<(SmallRng, GaussianSampler)>,
    deviates: RwLock<PolarBatch>,
    /// Per-worker row accumulators for one apply chunk.
    scratch: Vec<Mutex<Vec<f64>>>,
}

impl<'r> PooledStep<'r> {
    fn new(
        cfg: &TrainConfig,
        model: SkipGramModel,
        draws: (SmallRng, GaussianSampler),
        subgraphs: &'r SubgraphSource<'r>,
        prox: &'r EdgeProximity,
        batch: usize,
        threads: usize,
    ) -> Self {
        let grad_chunk = batch.div_ceil(GRAD_CHUNKS);
        let apply_rows = (APPLY_CHUNK_ELEMS / cfg.dim).max(1);
        let grads = (0..batch.div_ceil(grad_chunk))
            .map(|c| {
                let len = grad_chunk.min(batch - c * grad_chunk);
                RwLock::new(GradSlot {
                    bufs: (0..len).map(|_| GradBuffer::new()).collect(),
                    losses: vec![0.0; len],
                })
            })
            .collect();
        Self {
            subgraphs,
            weights: &prox.weights,
            clip: cfg.clip,
            dim: cfg.dim,
            noise_std: cfg.strategy.sensitivity(batch, cfg.clip) * cfg.sigma,
            scale: -cfg.learning_rate / batch as f64,
            grad_chunk,
            apply_rows,
            plan: RwLock::new(StepPlan::new(
                model.num_nodes(),
                batch,
                cfg.strategy == PerturbStrategy::Naive,
            )),
            model: RwLock::new(model),
            grads,
            draws: Mutex::new(draws),
            deviates: RwLock::new(PolarBatch::new()),
            scratch: (0..threads)
                .map(|_| Mutex::new(vec![0.0; apply_rows * cfg.dim]))
                .collect(),
        }
    }

    /// Caller, between steps: samples the batch (line 5) and marks the
    /// rows it touches.
    fn prepare(&self, num_edges: usize, final_epoch: bool) {
        let mut plan = self.plan.write().expect("plan lock poisoned");
        plan.final_epoch = final_epoch;
        let batch = plan.examples.len();
        let idx = {
            let mut draws = self.draws.lock().expect("rng lock poisoned");
            rand::seq::index::sample(&mut draws.0, num_edges, batch)
        };
        for (slot, i) in plan.examples.iter_mut().zip(idx.iter()) {
            self.subgraphs.fill(i, slot);
        }
        plan.mark_rows();
        plan.phase = StepPhase::Grad;
    }

    fn set_phase(&self, phase: StepPhase) {
        self.plan.write().expect("plan lock poisoned").phase = phase;
    }

    /// Adds the step's per-example losses in batch order.
    fn fold_losses(&self, stats: &mut (f64, u64)) {
        for slot in &self.grads {
            for &loss in &slot.read().expect("grad lock poisoned").losses {
                stats.0 += loss;
                stats.1 += 1;
            }
        }
    }

    /// The run RNG state and the sampler's spare, for a checkpoint.
    fn rng_state(&self) -> ([u64; 4], Option<f64>) {
        let draws = self.draws.lock().expect("rng lock poisoned");
        (draws.0.state(), draws.1.spare())
    }

    /// The pool's work function: one phase of the current step.
    fn work(&self, phase: &Phase<'_>) {
        let plan = self.plan.read().expect("plan lock poisoned");
        match plan.phase {
            StepPhase::Grad => self.grad_phase(phase, &plan),
            StepPhase::Apply => self.apply_phase(phase, &plan),
        }
    }

    fn grad_phase(&self, phase: &Phase<'_>, plan: &StepPlan) {
        if phase.worker() == 0 && self.noise_std > 0.0 {
            // The serial half of the noise (line 7): the RNG draws, in
            // stream order, while the other workers start on gradients.
            let mut draws = self.draws.lock().expect("rng lock poisoned");
            let (rng, sampler) = &mut *draws;
            let mut deviates = self.deviates.write().expect("noise lock poisoned");
            sampler.draw_batch(plan.rows.len() * self.dim, &mut deviates, rng);
        }
        let model = self.model.read().expect("model lock poisoned");
        while let Some(c) = phase.claim(self.grads.len()) {
            let mut slot = self.grads[c].write().expect("grad lock poisoned");
            let GradSlot { bufs, losses } = &mut *slot;
            let first = c * self.grad_chunk;
            let examples = &plan.examples[first..first + bufs.len()];
            for ((sg, buf), loss) in examples.iter().zip(bufs.iter_mut()).zip(losses) {
                model.example_grad(sg, self.weights[sg.edge_index], buf);
                if plan.final_epoch {
                    *loss = buf.loss();
                }
                buf.clip(self.clip);
            }
        }
    }

    fn apply_phase(&self, phase: &Phase<'_>, plan: &StepPlan) {
        let grads: [Option<RwLockReadGuard<'_, GradSlot>>; GRAD_CHUNKS] =
            std::array::from_fn(|c| {
                self.grads
                    .get(c)
                    .map(|slot| slot.read().expect("grad lock poisoned"))
            });
        let example = |e: u32| {
            let e = e as usize;
            let slot = grads[e / self.grad_chunk].as_ref().expect("grad slot");
            &slot.bufs[e % self.grad_chunk]
        };
        let deviates = self.deviates.read().expect("noise lock poisoned");
        let mut scratch = self.scratch[phase.worker()]
            .lock()
            .expect("scratch lock poisoned");
        let rows = &plan.rows;
        while let Some(c) = phase.claim(rows.len().div_ceil(self.apply_rows)) {
            let first = c * self.apply_rows;
            let chunk = first..(first + self.apply_rows).min(rows.len());
            for (j, acc) in chunk.clone().zip(scratch.chunks_exact_mut(self.dim)) {
                acc.fill(0.0);
                for &e in &plan.contrib[plan.starts[j]..plan.starts[j + 1]] {
                    let buf = example(e);
                    let grad = match rows[j] {
                        RowRef::In(_) => &buf.grad_center[..],
                        RowRef::Out(v) => buf.ctx_grad(v).expect("marked row has a gradient"),
                    };
                    vector::axpy(1.0, grad, acc);
                }
                if self.noise_std > 0.0 {
                    deviates.add_scaled(j * self.dim, self.noise_std, acc);
                }
            }
            let mut model = self.model.write().expect("model lock poisoned");
            for (j, acc) in chunk.zip(scratch.chunks_exact(self.dim)) {
                let w = match rows[j] {
                    RowRef::In(v) => model.w_in.row_mut(v as usize),
                    RowRef::Out(v) => model.w_out.row_mut(v as usize),
                };
                vector::axpy(self.scale, acc, w);
            }
        }
    }
}

/// Convenience: builds the default-config trainer, computes the
/// proximity, and trains — the one-liner used by examples.
pub fn train_with_defaults(
    g: &Graph,
    kind: sp_proximity::ProximityKind,
) -> (SkipGramModel, TrainReport) {
    let prox = EdgeProximity::compute(g, kind);
    Trainer::new(TrainConfig::default()).train(g, &prox)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_proximity::ProximityKind;

    fn ring_with_chords(n: usize) -> Graph {
        let mut edges: Vec<(u32, u32)> = (0..n).map(|i| (i as u32, ((i + 1) % n) as u32)).collect();
        for i in (0..n).step_by(5) {
            edges.push((i as u32, ((i + n / 2) % n) as u32));
        }
        Graph::from_edges(n, edges)
    }

    fn quick_config(strategy: PerturbStrategy) -> TrainConfig {
        TrainConfig {
            dim: 16,
            negatives: 3,
            batch_size: 16,
            learning_rate: 0.1,
            clip: 1.0,
            sigma: 5.0,
            epsilon: 3.5,
            delta: 1e-5,
            epochs: 5,
            strategy,
            negative_sampling: NegativeSampling::UniformNonNeighbor,
            seed: 99,
            threads: None,
            subgraph_shard_edges: None,
            checkpoint_every: None,
            checkpoint_dir: None,
        }
    }

    #[test]
    fn nonprivate_training_reduces_loss() {
        let g = ring_with_chords(60);
        let prox = EdgeProximity::compute(&g, ProximityKind::deepwalk_default());
        let mut cfg = quick_config(PerturbStrategy::None);
        cfg.epochs = 1;
        let (_, early) = Trainer::new(cfg.clone()).train(&g, &prox);
        cfg.epochs = 40;
        let (_, late) = Trainer::new(cfg).train(&g, &prox);
        assert!(
            late.final_loss < early.final_loss,
            "loss should fall with more epochs: {} -> {}",
            early.final_loss,
            late.final_loss
        );
    }

    #[test]
    fn report_counts_epochs_and_steps() {
        let g = ring_with_chords(40);
        let prox = EdgeProximity::compute(&g, ProximityKind::Degree);
        let cfg = quick_config(PerturbStrategy::None);
        let (_, rep) = Trainer::new(cfg.clone()).train(&g, &prox);
        assert_eq!(rep.epochs_run, 5);
        let steps_per_epoch = g.num_edges().div_ceil(cfg.batch_size);
        assert_eq!(rep.steps_run, (5 * steps_per_epoch) as u64);
        assert!(!rep.stopped_by_budget);
        assert_eq!(rep.epsilon_spent, 0.0);
    }

    #[test]
    fn private_training_spends_budget() {
        let g = ring_with_chords(40);
        let prox = EdgeProximity::compute(&g, ProximityKind::Degree);
        let (_, rep) = Trainer::new(quick_config(PerturbStrategy::NonZero)).train(&g, &prox);
        assert!(rep.epsilon_spent > 0.0);
        assert!(rep.delta_spent < 1e-5);
    }

    #[test]
    fn tiny_budget_stops_training_early() {
        let g = ring_with_chords(40);
        let prox = EdgeProximity::compute(&g, ProximityKind::Degree);
        let mut cfg = quick_config(PerturbStrategy::NonZero);
        // γ = 16/48 = 1/3 is large; ε = 0.05 is minuscule: the budget
        // must bind almost immediately.
        cfg.epsilon = 0.05;
        cfg.epochs = 100;
        let (_, rep) = Trainer::new(cfg).train(&g, &prox);
        assert!(rep.stopped_by_budget);
        assert!(rep.epochs_run < 100);
    }

    #[test]
    fn streamed_subgraphs_are_bit_identical_to_materialised() {
        let g = ring_with_chords(40);
        let prox = EdgeProximity::compute(&g, ProximityKind::deepwalk_default());
        for sampling in [
            NegativeSampling::UniformNonNeighbor,
            NegativeSampling::DegreeProportional,
        ] {
            let mut cfg = quick_config(PerturbStrategy::NonZero);
            cfg.negative_sampling = sampling;
            let (mat, mat_rep) = Trainer::new(cfg.clone()).train(&g, &prox);
            for shard in [1usize, 7, g.num_edges()] {
                cfg.subgraph_shard_edges = Some(shard);
                let (st, st_rep) = Trainer::new(cfg.clone()).train(&g, &prox);
                assert_eq!(mat.w_in.as_slice(), st.w_in.as_slice(), "{sampling:?}");
                assert_eq!(mat.w_out.as_slice(), st.w_out.as_slice(), "{sampling:?}");
                assert_eq!(mat_rep.steps_run, st_rep.steps_run);
                assert_eq!(
                    mat_rep.epsilon_spent.to_bits(),
                    st_rep.epsilon_spent.to_bits()
                );
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let g = ring_with_chords(30);
        let prox = EdgeProximity::compute(&g, ProximityKind::deepwalk_default());
        let cfg = quick_config(PerturbStrategy::NonZero);
        let (m1, _) = Trainer::new(cfg.clone()).train(&g, &prox);
        let (m2, _) = Trainer::new(cfg).train(&g, &prox);
        assert_eq!(m1.w_in.as_slice(), m2.w_in.as_slice());
        assert_eq!(m1.w_out.as_slice(), m2.w_out.as_slice());
    }

    #[test]
    fn different_seeds_differ() {
        let g = ring_with_chords(30);
        let prox = EdgeProximity::compute(&g, ProximityKind::deepwalk_default());
        let mut cfg = quick_config(PerturbStrategy::NonZero);
        let (m1, _) = Trainer::new(cfg.clone()).train(&g, &prox);
        cfg.seed = 123;
        let (m2, _) = Trainer::new(cfg).train(&g, &prox);
        assert_ne!(m1.w_in.as_slice(), m2.w_in.as_slice());
    }

    #[test]
    fn naive_noise_floods_untouched_rows() {
        // With naive perturbation every row of both matrices receives
        // noise with the B× larger sensitivity each step; with
        // non-zero only touched rows receive C-scaled noise. Compare
        // the *drift* from the (identical, same-seed) initialisation.
        let g = ring_with_chords(30);
        let prox = EdgeProximity::compute(&g, ProximityKind::Degree);
        let mut cfg = quick_config(PerturbStrategy::Naive);
        cfg.epochs = 2;
        let (naive_model, _) = Trainer::new(cfg.clone()).train(&g, &prox);
        cfg.strategy = PerturbStrategy::NonZero;
        let (nz_model, _) = Trainer::new(cfg.clone()).train(&g, &prox);
        cfg.strategy = PerturbStrategy::None;
        cfg.epochs = 1; // init reference: same seed => same init
        let init = {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(cfg.seed);
            let _ = crate::subgraph::generate_subgraphs(
                &g,
                cfg.negatives,
                cfg.negative_sampling,
                &mut rng,
            );
            SkipGramModel::new(g.num_nodes(), cfg.dim, &mut rng)
        };
        let drift = |m: &SkipGramModel| {
            let mut d = m.w_out.clone();
            d.add_scaled(-1.0, &init.w_out);
            d.frobenius_norm()
        };
        let naive_drift = drift(&naive_model);
        let nz_drift = drift(&nz_model);
        assert!(
            naive_drift > 5.0 * nz_drift,
            "naive noise should dominate: drift {naive_drift} vs {nz_drift}"
        );
    }

    #[test]
    fn batch_larger_than_edge_count_is_capped() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let prox = EdgeProximity::compute(&g, ProximityKind::Degree);
        let mut cfg = quick_config(PerturbStrategy::None);
        cfg.batch_size = 1000;
        let (_, rep) = Trainer::new(cfg).train(&g, &prox);
        assert_eq!(rep.steps_run, 5); // one step per epoch, 5 epochs
    }

    #[test]
    #[should_panic(expected = "edgeless")]
    fn refuses_empty_graph() {
        let g = Graph::from_edges(3, std::iter::empty());
        let prox = EdgeProximity {
            weights: vec![],
            min_positive: 1.0,
            kind: ProximityKind::Degree,
        };
        Trainer::new(quick_config(PerturbStrategy::None)).train(&g, &prox);
    }

    #[test]
    #[should_panic(expected = "invalid TrainConfig")]
    fn invalid_config_fails_fast() {
        let mut cfg = quick_config(PerturbStrategy::NonZero);
        cfg.sigma = 0.0;
        Trainer::new(cfg);
    }
}

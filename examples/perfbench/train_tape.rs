//! `train_tape`: one `train_epoch_ws` per model per step on a labeled
//! graph. The only workload on `models` and `tensor`; it bypasses `gtask`,
//! `kernels` and `cache`.

use wisegraph::graph::generate::{labeled_graph, LabeledGraph, LabeledParams};
use wisegraph::models::{accuracy_ws, train_epoch_ws, Gat, Gcn, GnnModel, Rgcn, Sage};
use wisegraph::obs::{keys, pool_reuse_ratio, Counters};
use wisegraph::tensor::{Adam, Optimizer, Tape, Tensor, Workspace};

use crate::harness::{median, time_median, Case, Config, Finish, Tracer, Workload};
use crate::inputs::EDGE_TYPES;

const DIMS: [usize; 3] = [64, 32, 40];
const NAMES: [&str; 4] = ["gcn", "sage", "gat", "rgcn"];
const LEARNING_RATE: f32 = 0.01;
/// Epochs a model, its optimiser and its `Workspace` live for before they
/// are re-created from the same seeds — the lifetime
/// `core::trainer::train_full_graph` gives them. The tape pool's peak grows
/// every epoch, so a pool that lived for the whole pass would not survive it.
const ROUND_EPOCHS: u64 = 3;

struct Trainee {
    model: Box<dyn GnnModel>,
    opt: Adam,
    ws: Workspace,
}

pub struct TrainTape {
    seed: u64,
    data: LabeledGraph,
    features: Tensor,
    trainees: Vec<Trainee>,
    last_loss: f32,
    /// `[model][epoch of the round]`: losses of the first round.
    first_losses: Vec<Vec<f32>>,
    /// Per model: pool peak (MiB) after the round's first epoch, and the
    /// growth per epoch since, as of the latest epoch.
    pool_peak_mb: Vec<f64>,
    growth_mb_per_epoch: Vec<f64>,
    /// Pool counters of the latest complete round, all models merged.
    pool_stats: Counters,
}

fn fresh_trainees(seed: u64) -> Vec<Trainee> {
    let models: [Box<dyn GnnModel>; 4] = [
        Box::new(Gcn::new(&DIMS, seed)),
        Box::new(Sage::new(&DIMS, seed)),
        Box::new(Gat::new(&DIMS, seed)),
        Box::new(Rgcn::new(&DIMS, EDGE_TYPES, seed)),
    ];
    models
        .into_iter()
        .map(|model| Trainee {
            model,
            opt: Adam::new(LEARNING_RATE),
            ws: Workspace::new(),
        })
        .collect()
}

impl Workload for TrainTape {
    type Oracle = ();

    fn setup(cfg: &Config, _tr: &Tracer) -> Self {
        let data = labeled_graph(&LabeledParams {
            num_vertices: cfg.scale.train_vertices,
            avg_degree: 14,
            feature_dim: DIMS[0],
            num_classes: DIMS[2],
            num_edge_types: EDGE_TYPES,
            seed: cfg.seed,
            ..LabeledParams::default()
        });
        TrainTape {
            seed: cfg.seed,
            features: wisegraph::core::trainer::features_of(&data),
            data,
            trainees: fresh_trainees(cfg.seed),
            last_loss: f32::NAN,
            first_losses: vec![Vec::new(); NAMES.len()],
            pool_peak_mb: vec![0.0; NAMES.len()],
            growth_mb_per_epoch: vec![0.0; NAMES.len()],
            pool_stats: Counters::new(),
        }
    }

    fn cases(&self) -> Vec<Case> {
        // An epoch sends every edge through each of the two layers.
        let edges = self.data.graph.num_edges() * (DIMS.len() - 1);
        NAMES
            .iter()
            .map(|&name| Case {
                name,
                edges,
                layer_ms: None,
            })
            .collect()
    }

    fn run(&mut self, case: usize, _step: u64, _tr: &Tracer) -> Result<(), String> {
        let t = &mut self.trainees[case];
        let d = &self.data;
        self.last_loss = train_epoch_ws(
            t.model.as_mut(),
            &mut t.opt,
            &d.graph,
            &self.features,
            &d.labels,
            &d.train_idx,
            &mut t.ws,
        );
        Ok(())
    }

    fn check(&mut self, case: usize, step: u64, _tr: &Tracer) -> Result<(), String> {
        let (loss, epoch) = (self.last_loss, (step % ROUND_EPOCHS) as usize);
        if !loss.is_finite() {
            return Err(format!("loss {loss} is not finite"));
        }
        let peak_mb =
            self.trainees[case].ws.stats().count(keys::POOL_PEAK) as f64 / (1 << 20) as f64;
        if epoch == 0 {
            self.pool_peak_mb[case] = peak_mb;
        } else {
            self.growth_mb_per_epoch[case] = (peak_mb - self.pool_peak_mb[case]) / epoch as f64;
        }
        let first = &mut self.first_losses[case];
        match first.get(epoch) {
            None => first.push(loss),
            Some(want) if want.to_bits() != loss.to_bits() => {
                return Err(format!(
                    "epoch {epoch} loss {loss} differs from the first round's {want}"
                ));
            }
            Some(_) => {}
        }
        if epoch as u64 == ROUND_EPOCHS - 1 && loss >= first[0] {
            return Err(format!(
                "loss {loss} after {ROUND_EPOCHS} epochs is not below the first epoch's {}",
                first[0]
            ));
        }
        Ok(())
    }

    fn end_step(&mut self, step: u64) {
        if (step + 1).is_multiple_of(ROUND_EPOCHS) {
            self.pool_stats = Counters::new();
            for t in &self.trainees {
                self.pool_stats.merge(&t.ws.stats());
            }
            self.trainees = fresh_trainees(self.seed);
        }
    }

    fn oracle(&self) {}

    fn check_oracle(&self, _oracle: &()) -> Result<(), String> {
        Ok(())
    }

    fn finish(&mut self, cfg: &Config, f: &mut Finish) {
        if !cfg.trace {
            return;
        }
        for (i, name) in NAMES.iter().enumerate() {
            // The smoke run stops inside its first round.
            let losses = &self.first_losses[i];
            f.set(
                format!("models.{name}.loss_after_3"),
                *losses.last().expect("warm-up epoch ran") as f64,
            );
            f.set(
                format!("tensor.workspace.{name}.growth_mb_per_epoch"),
                self.growth_mb_per_epoch[i],
            );
        }
        if self.pool_stats.is_empty() {
            for t in &self.trainees {
                self.pool_stats.merge(&t.ws.stats());
            }
        }
        f.set(
            "tensor.workspace.reuse_ratio",
            pool_reuse_ratio(&self.pool_stats),
        );

        // † The body of `train_epoch_ws` replayed through `Tape` and
        // `Optimizer`, one span per phase, on freshly seeded models.
        self.trainees.clear();
        let d = &self.data;
        let labels: Vec<u32> = d.train_idx.iter().map(|&i| d.labels[i as usize]).collect();
        for (name, mut t) in NAMES.iter().zip(fresh_trainees(self.seed)) {
            let (mut forward, mut backward, mut optim) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..cfg.scale.extra_reps {
                let tape = Tape::with_workspace(std::mem::take(&mut t.ws));
                let mut out = None;
                forward.push(time_median(
                    f.tr,
                    &format!("models.{name}.forward"),
                    1,
                    || {
                        let x = tape.input(self.features.clone());
                        let o = t.model.forward(&tape, &d.graph, x);
                        let selected = tape.gather_rows(o.logits, d.train_idx.clone());
                        out = Some((tape.cross_entropy(selected, labels.clone()), o.params));
                    },
                ));
                let (loss, params) = out.expect("forward ran");
                backward.push(time_median(
                    f.tr,
                    &format!("tensor.autograd.{name}.backward"),
                    1,
                    || tape.backward(loss),
                ));
                optim.push(time_median(
                    f.tr,
                    &format!("tensor.optim.{name}.step"),
                    1,
                    || {
                        let grads: Vec<Tensor> = params
                            .iter()
                            .map(|&p| {
                                tape.grad(p)
                                    .unwrap_or_else(|| Tensor::zeros(tape.value(p).dims()))
                            })
                            .collect();
                        let grad_refs: Vec<&Tensor> = grads.iter().collect();
                        t.opt.step(&mut t.model.params_mut(), &grad_refs);
                    },
                ));
                t.ws = tape.finish();
            }
            f.set(format!("models.{name}.forward_ms"), median(&forward));
            f.set(
                format!("tensor.autograd.{name}.backward_ms"),
                median(&backward),
            );
            f.set(format!("tensor.optim.{name}.step_ms"), median(&optim));
            let eval = time_median(
                f.tr,
                &format!("models.{name}.eval"),
                cfg.scale.extra_reps,
                || {
                    accuracy_ws(
                        t.model.as_ref(),
                        &d.graph,
                        &self.features,
                        &d.labels,
                        &d.test_idx,
                        &mut t.ws,
                    )
                },
            );
            f.set(format!("models.{name}.eval_ms"), eval);
        }
    }
}

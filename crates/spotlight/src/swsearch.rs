//! The per-layer software optimizer (daBO_SW) and its ablation variants.

use std::cell::OnceCell;

use rand::seq::SliceRandom;
use rand::{Rng, RngCore};

use spotlight_accel::{DataflowStyle, HardwareConfig};
use spotlight_conv::{ConvLayer, Dim, DIMS, NUM_DIMS};
use spotlight_dabo::{Dabo, DaboConfig, FnFeatureMap, Search, SurrogateKind, Trace};
use spotlight_eval::{EvalEngine, Fidelity};
use spotlight_gp::Kernel;
use spotlight_maestro::{CostReport, Objective};
use spotlight_obs::Observer;
use spotlight_searchers::{Genetic, RandomSearch};
use spotlight_space::dataflows::dataflow_schedule_with;
use spotlight_space::sample::TileTable;
use spotlight_space::{mutate, sample, Schedule, TileSizes};

use crate::features::{
    all_sw_features, raw_sw_params, sw_features, ALL_SW_DIM, RAW_SW_DIM, SW_FEATURE_NAMES,
};
use crate::variants::Variant;

/// Configuration of one software search.
#[derive(Debug, Clone, Copy)]
pub struct SwSearchConfig {
    /// Cost-model evaluations ("100 software samples per layer").
    pub samples: usize,
    /// Metric to minimize.
    pub objective: Objective,
    /// Which search machinery to use.
    pub variant: Variant,
}

/// Result of optimizing one layer's schedule on a fixed accelerator.
#[derive(Debug, Clone)]
pub struct SwResult {
    /// Best feasible schedule and its cost report, if any sample was
    /// feasible.
    pub best: Option<(Schedule, CostReport)>,
    /// Best-so-far convergence trace over the sample budget.
    pub trace: Trace,
    /// Cost-model evaluations spent.
    pub evaluations: u64,
}

impl SwResult {
    /// The layer's objective value, or `f64::INFINITY` when no feasible
    /// schedule was found.
    pub fn objective_value(&self, obj: Objective) -> f64 {
        self.best
            .as_ref()
            .map_or(f64::INFINITY, |(_, r)| r.objective(obj))
    }
}

/// The software search's candidate sampler for one (hw, layer) pair,
/// built once per search.
///
/// It holds the layer's [`TileTable`] and the three
/// [`DataflowStyle::RIGID`] skeletons on `hw`, so every draw indexes
/// precomputed slices and makes no heap allocation. A skeleton is built
/// on the first draw that starts from it, which keeps a sampler that
/// draws only a few times (a one-shot draw, or a search with a tiny
/// budget) as cheap as the draws it makes. Each draw consumes the RNG
/// exactly as rebuilding the tables and skeletons per draw would, so
/// searches stay bit-identical to the one-shot free functions
/// ([`sample_schedule_guided`] and friends), which build a sampler and
/// draw once.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use spotlight::swsearch::{sample_schedule_guided, ScheduleSampler};
/// use spotlight_accel::Baseline;
/// use spotlight_conv::ConvLayer;
///
/// let hw = Baseline::NvdlaLike.edge_config();
/// let layer = ConvLayer::new(1, 64, 32, 3, 3, 28, 28);
/// let sampler = ScheduleSampler::new(&layer, &hw);
/// let mut a = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let mut b = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// for _ in 0..100 {
///     assert_eq!(sampler.guided(&mut a), sample_schedule_guided(&mut b, &layer, &hw));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ScheduleSampler {
    tiles: TileTable,
    hw: HardwareConfig,
    /// The rigid skeletons, in [`DataflowStyle::RIGID`] order.
    skeletons: [(DataflowStyle, OnceCell<Schedule>); 3],
}

impl ScheduleSampler {
    /// Builds the sampler for `layer` on `hw`.
    pub fn new(layer: &ConvLayer, hw: &HardwareConfig) -> Self {
        ScheduleSampler {
            tiles: TileTable::new(layer),
            hw: *hw,
            skeletons: DataflowStyle::RIGID.map(|st| (st, OnceCell::new())),
        }
    }

    /// The skeleton of one `skeletons` entry, built on first use.
    fn skeleton<'a>(
        &'a self,
        (style, cell): &'a (DataflowStyle, OnceCell<Schedule>),
    ) -> &'a Schedule {
        cell.get_or_init(|| dataflow_schedule_with(&self.tiles, *style, &self.hw))
    }

    /// A uniform pick among the three rigid skeletons.
    fn pick_skeleton(&self, rng: &mut dyn RngCore) -> &Schedule {
        self.skeleton(self.skeletons.choose(rng).expect("menu non-empty"))
    }

    /// A uniform draw over the full schedule space.
    pub fn uniform(&self, rng: &mut dyn RngCore) -> Schedule {
        self.tiles.sample_schedule(rng)
    }

    /// Guided proposal distribution for the BO-based variants: half
    /// uniform draws over the full schedule space, half
    /// structure-preserving randomizations around the rigid dataflow
    /// skeletons (tile chains re-drawn per dimension, orders and unrolls
    /// occasionally re-drawn). Every schedule in the space remains
    /// reachable; the mixture simply concentrates candidate batches where
    /// the acquisition function can discriminate — the
    /// candidate-generation side of injecting domain information.
    pub fn guided(&self, rng: &mut dyn RngCore) -> Schedule {
        if rng.gen_bool(0.5) {
            return self.uniform(rng);
        }
        let base = self.pick_skeleton(rng);
        // All seven redraw flips come before any chain draw: that order
        // is part of the seeded RNG stream every report depends on.
        let mut redraw = [false; NUM_DIMS];
        for r in &mut redraw {
            *r = rng.gen_bool(0.5);
        }
        let mut s = self.randomize(rng, base, redraw);
        if rng.gen_bool(0.3) {
            s = Schedule::new(
                *s.tiles(),
                sample::sample_order(rng),
                *s.inner_order(),
                s.outer_unroll(),
                s.inner_unroll(),
            );
        }
        if rng.gen_bool(0.3) {
            s = Schedule::new(
                *s.tiles(),
                *s.outer_order(),
                sample::sample_order(rng),
                sample::sample_dim(rng),
                sample::sample_dim(rng),
            );
        }
        s
    }

    /// Spotlight-F's restricted draw: one of the three rigid dataflows
    /// with only the K and C tiling factors re-randomized (Section VII-E:
    /// "it only searches among the three software schedules supported by
    /// ConfuciuX ... and it only searches for tiling factors in the K and
    /// C dimensions").
    pub fn fixed_dataflow(&self, rng: &mut dyn RngCore) -> Schedule {
        let base = self.pick_skeleton(rng);
        let mut redraw = [false; NUM_DIMS];
        redraw[Dim::K.index()] = true;
        redraw[Dim::C.index()] = true;
        self.randomize(rng, base, redraw)
    }

    /// A style-constrained draw for rigid hand-designed accelerators:
    /// unroll dimensions and loop orders are pinned by the dataflow,
    /// tiling is free (the compiler's degree of freedom).
    ///
    /// # Panics
    ///
    /// Panics if `style` is [`DataflowStyle::Flexible`].
    pub fn style_constrained(&self, rng: &mut dyn RngCore, style: DataflowStyle) -> Schedule {
        let entry = self
            .skeletons
            .iter()
            .find(|(st, _)| *st == style)
            .expect("flexible style has no single schedule");
        self.randomize(rng, self.skeleton(entry), [true; NUM_DIMS])
    }

    /// Re-randomizes the divisor chains of the dimensions flagged in
    /// `redraw` (in canonical order), keeping everything else.
    fn randomize(
        &self,
        rng: &mut dyn RngCore,
        base: &Schedule,
        redraw: [bool; NUM_DIMS],
    ) -> Schedule {
        let mut l2: [u64; NUM_DIMS] = std::array::from_fn(|i| base.tiles().l2(DIMS[i]));
        let mut rf: [u64; NUM_DIMS] = std::array::from_fn(|i| base.tiles().rf(DIMS[i]));
        for (i, d) in DIMS.iter().enumerate() {
            if redraw[i] {
                (l2[i], rf[i]) = self.tiles.sample_chain(rng, *d);
            }
        }
        let tiles = TileSizes::new(self.tiles.layer(), l2, rf).expect("redrawn chains are legal");
        base.with_tiles(tiles)
    }
}

/// One draw from [`ScheduleSampler::guided`]. Repeated draws for one
/// (hw, layer) pair should build the sampler once instead.
pub fn sample_schedule_guided(
    rng: &mut dyn RngCore,
    layer: &ConvLayer,
    hw: &HardwareConfig,
) -> Schedule {
    ScheduleSampler::new(layer, hw).guided(rng)
}

/// Builds the variant's software-search algorithm for one (hw, layer)
/// pair.
fn build_search(
    variant: Variant,
    hw: HardwareConfig,
    layer: ConvLayer,
) -> Box<dyn Search<Schedule>> {
    let sampler = ScheduleSampler::new(&layer, &hw);
    match variant {
        Variant::Spotlight => {
            let fm = FnFeatureMap::new(SW_FEATURE_NAMES.len(), move |s: &Schedule| {
                sw_features(&hw, s, &layer)
            });
            Box::new(Dabo::new(DaboConfig::default(), fm, move |rng| {
                sampler.guided(rng)
            }))
        }
        Variant::SpotlightA => {
            let fm = FnFeatureMap::new(ALL_SW_DIM, move |s: &Schedule| {
                all_sw_features(&hw, s, &layer)
            });
            Box::new(Dabo::new(DaboConfig::default(), fm, move |rng| {
                sampler.guided(rng)
            }))
        }
        Variant::SpotlightV => {
            let fm = FnFeatureMap::new(RAW_SW_DIM, |s: &Schedule| raw_sw_params(s));
            let cfg = DaboConfig {
                surrogate: SurrogateKind::Gp(Kernel::matern52(3.0)),
                // O(N^3) fits: refit sparsely, as off-the-shelf BO stacks do.
                refit_every: 4,
                ..DaboConfig::default()
            };
            Box::new(Dabo::new(cfg, fm, move |rng| sampler.guided(rng)))
        }
        Variant::SpotlightF => {
            let fm = FnFeatureMap::new(SW_FEATURE_NAMES.len(), move |s: &Schedule| {
                sw_features(&hw, s, &layer)
            });
            Box::new(Dabo::new(DaboConfig::default(), fm, move |rng| {
                sampler.fixed_dataflow(rng)
            }))
        }
        Variant::SpotlightR => Box::new(RandomSearch::new(move |rng| sampler.uniform(rng))),
        Variant::SpotlightGA => Box::new(Genetic::new(
            16,
            0.6,
            move |rng| sampler.uniform(rng),
            move |rng: &mut dyn RngCore, s: &Schedule| mutate::mutate_schedule(rng, s, &layer),
            move |rng: &mut dyn RngCore, a: &Schedule, b: &Schedule| {
                mutate::crossover_schedule(rng, a, b, &layer)
            },
        )),
    }
}

/// One draw from [`ScheduleSampler::fixed_dataflow`].
pub fn fixed_dataflow_sample(
    rng: &mut dyn RngCore,
    layer: &ConvLayer,
    hw: &HardwareConfig,
) -> Schedule {
    ScheduleSampler::new(layer, hw).fixed_dataflow(rng)
}

/// One draw from [`ScheduleSampler::style_constrained`]. Used when
/// evaluating Eyeriss-/NVDLA-/ShiDianNao-like baselines "under our
/// layerwise software optimizer".
pub fn style_constrained_sample(
    rng: &mut dyn RngCore,
    layer: &ConvLayer,
    hw: &HardwareConfig,
    style: DataflowStyle,
) -> Schedule {
    ScheduleSampler::new(layer, hw).style_constrained(rng, style)
}

/// Runs one software search of `cfg.samples` cost-model evaluations for
/// `layer` on `hw`. Every evaluation goes through `engine`, which
/// memoizes repeated triples and tracks the instrumentation counters.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use spotlight::swsearch::{optimize_schedule, SwSearchConfig};
/// use spotlight::Variant;
/// use spotlight_accel::Baseline;
/// use spotlight_conv::ConvLayer;
/// use spotlight_eval::EvalEngine;
/// use spotlight_maestro::Objective;
///
/// let cfg = SwSearchConfig { samples: 20, objective: Objective::Edp, variant: Variant::Spotlight };
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let engine = EvalEngine::default();
/// let r = optimize_schedule(
///     &engine,
///     &Baseline::NvdlaLike.edge_config(),
///     &ConvLayer::new(1, 16, 8, 3, 3, 14, 14),
///     &cfg,
///     &mut rng,
/// );
/// assert!(r.best.is_some());
/// assert_eq!(r.evaluations, 20);
/// assert_eq!(engine.stats().evaluations, 20);
/// ```
pub fn optimize_schedule(
    engine: &EvalEngine,
    hw: &HardwareConfig,
    layer: &ConvLayer,
    cfg: &SwSearchConfig,
    rng: &mut dyn RngCore,
) -> SwResult {
    optimize_schedule_observed(engine, hw, layer, cfg, rng, &Observer::null())
}

/// Like [`optimize_schedule`] but reporting every cost-model evaluation
/// to `obs` as a `schedule_evaluated` / `infeasible` event, tagged with
/// the step index within the sample budget. The observer never touches
/// the RNG, so observed and unobserved runs stay bit-identical.
pub fn optimize_schedule_observed(
    engine: &EvalEngine,
    hw: &HardwareConfig,
    layer: &ConvLayer,
    cfg: &SwSearchConfig,
    rng: &mut dyn RngCore,
    obs: &Observer,
) -> SwResult {
    optimize_schedule_observed_at(engine, hw, layer, cfg, Fidelity::Full, rng, obs)
}

/// Like [`optimize_schedule_observed`] but evaluating every schedule at
/// an explicit [`Fidelity`] — the entry point the successive-halving
/// codesign driver uses for cheap rungs. Cheap-rung dispersion already
/// carries the rung's calibrated variance inflation (the engine inflates
/// it), so `observe_noisy` automatically trusts cheap points less.
pub fn optimize_schedule_observed_at(
    engine: &EvalEngine,
    hw: &HardwareConfig,
    layer: &ConvLayer,
    cfg: &SwSearchConfig,
    fidelity: Fidelity,
    rng: &mut dyn RngCore,
    obs: &Observer,
) -> SwResult {
    let mut search = build_search(cfg.variant, *hw, *layer);
    run_sw_observed(engine, hw, layer, cfg, fidelity, rng, search.as_mut(), obs)
}

/// Like [`optimize_schedule`] but constrained to one rigid dataflow —
/// the fair software optimizer for hand-designed baselines.
pub fn optimize_schedule_for_style(
    engine: &EvalEngine,
    hw: &HardwareConfig,
    layer: &ConvLayer,
    style: DataflowStyle,
    cfg: &SwSearchConfig,
    rng: &mut dyn RngCore,
) -> SwResult {
    let mut search: Box<dyn Search<Schedule>> = if style == DataflowStyle::Flexible {
        // MAERI-like: flexible dataflow, full schedule freedom on fixed HW.
        build_search(Variant::Spotlight, *hw, *layer)
    } else {
        let (hw_c, layer_c) = (*hw, *layer);
        let fm = FnFeatureMap::new(SW_FEATURE_NAMES.len(), move |s: &Schedule| {
            sw_features(&hw_c, s, &layer_c)
        });
        let sampler = ScheduleSampler::new(layer, hw);
        Box::new(Dabo::new(DaboConfig::default(), fm, move |rng| {
            sampler.style_constrained(rng, style)
        }))
    };
    run_sw(engine, hw, layer, cfg, rng, search.as_mut())
}

/// Like [`optimize_schedule`] with the Spotlight feature space but
/// *uniform* candidate proposals instead of the guided mixture — the
/// ablation of this reproduction's one methodological addition (see
/// DESIGN.md). Also accepts an alternative acquisition function.
pub fn optimize_schedule_uniform(
    engine: &EvalEngine,
    hw: &HardwareConfig,
    layer: &ConvLayer,
    cfg: &SwSearchConfig,
    acquisition: spotlight_dabo::Acquisition,
    rng: &mut dyn RngCore,
) -> SwResult {
    let hw_c = *hw;
    let layer_c = *layer;
    let fm = FnFeatureMap::new(SW_FEATURE_NAMES.len(), move |s: &Schedule| {
        sw_features(&hw_c, s, &layer_c)
    });
    let dcfg = DaboConfig {
        acquisition,
        ..DaboConfig::default()
    };
    let sampler = ScheduleSampler::new(layer, hw);
    let mut search = Dabo::new(dcfg, fm, move |rng| sampler.uniform(rng));
    run_sw(engine, hw, layer, cfg, rng, &mut search)
}

/// Like [`optimize_schedule`] for the Spotlight variant but with an
/// explicit acquisition function (guided proposals).
pub fn optimize_schedule_with_acquisition(
    engine: &EvalEngine,
    hw: &HardwareConfig,
    layer: &ConvLayer,
    cfg: &SwSearchConfig,
    acquisition: spotlight_dabo::Acquisition,
    rng: &mut dyn RngCore,
) -> SwResult {
    let hw_c = *hw;
    let layer_c = *layer;
    let fm = FnFeatureMap::new(SW_FEATURE_NAMES.len(), move |s: &Schedule| {
        sw_features(&hw_c, s, &layer_c)
    });
    let dcfg = DaboConfig {
        acquisition,
        ..DaboConfig::default()
    };
    let sampler = ScheduleSampler::new(layer, hw);
    let mut search = Dabo::new(dcfg, fm, move |rng| sampler.guided(rng));
    run_sw(engine, hw, layer, cfg, rng, &mut search)
}

fn run_sw(
    engine: &EvalEngine,
    hw: &HardwareConfig,
    layer: &ConvLayer,
    cfg: &SwSearchConfig,
    rng: &mut dyn RngCore,
    search: &mut dyn Search<Schedule>,
) -> SwResult {
    run_sw_observed(
        engine,
        hw,
        layer,
        cfg,
        Fidelity::Full,
        rng,
        search,
        &Observer::null(),
    )
}

#[allow(clippy::too_many_arguments)]
fn run_sw_observed(
    engine: &EvalEngine,
    hw: &HardwareConfig,
    layer: &ConvLayer,
    cfg: &SwSearchConfig,
    fidelity: Fidelity,
    rng: &mut dyn RngCore,
    search: &mut dyn Search<Schedule>,
    obs: &Observer,
) -> SwResult {
    engine.count_sw_search();
    let mut best: Option<(Schedule, CostReport)> = None;
    for step in 0..cfg.samples {
        let sched = search.suggest(rng);
        let (cost, dispersion) =
            match engine.evaluate_observed(hw, &sched, layer, fidelity, obs, step as u64) {
                Ok((report, summary)) => {
                    let value = report.objective(cfg.objective);
                    if best
                        .as_ref()
                        .is_none_or(|(_, b)| value < b.objective(cfg.objective))
                    {
                        best = Some((sched, report));
                    }
                    (value, summary.dispersion)
                }
                Err(_) => (f64::INFINITY, 0.0),
            };
        // Replicate dispersion is the relative (scaled-MAD / median)
        // spread, which approximates the standard deviation of ln(cost)
        // under multiplicative noise — exactly the target space the
        // daBO surrogate fits, so its square is the observation-noise
        // variance. Single-shot measurement reports zero and this call
        // reduces bit-identically to `observe`.
        search.observe_noisy(sched, cost, dispersion * dispersion);
    }
    // Model-based searchers time their own fit/acquisition split; fold it
    // into the engine's phase accounting. These are sub-phases of the
    // driver's `sw_search` wall time, not additional time on top of it.
    if let Some(timers) = search.surrogate_timers() {
        engine.add_phase_wall("surrogate_fit", timers.fit);
        engine.add_phase_wall("acquisition", timers.acquisition);
    }
    SwResult {
        best,
        trace: Trace::from_costs(search.history()),
        evaluations: cfg.samples as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use spotlight_accel::Baseline;
    use spotlight_conv::factor::divisors;
    use spotlight_maestro::CostModel;
    use spotlight_space::dataflows::dataflow_schedule;

    fn cfg(variant: Variant) -> SwSearchConfig {
        SwSearchConfig {
            samples: 40,
            objective: Objective::Edp,
            variant,
        }
    }

    fn layer() -> ConvLayer {
        ConvLayer::new(1, 64, 32, 3, 3, 28, 28)
    }

    #[test]
    fn every_variant_finds_a_feasible_schedule() {
        let model = EvalEngine::default();
        let hw = Baseline::NvdlaLike.edge_config();
        for v in Variant::ALL {
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let r = optimize_schedule(&model, &hw, &layer(), &cfg(v), &mut rng);
            assert!(r.best.is_some(), "{v} found nothing feasible");
            assert_eq!(r.evaluations, 40);
        }
    }

    #[test]
    fn spotlight_beats_random_on_median_seed() {
        let model = EvalEngine::default();
        let hw = Baseline::NvdlaLike.edge_config();
        let mut wins = 0;
        let trials = 7;
        for seed in 0..trials {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let s = optimize_schedule(&model, &hw, &layer(), &cfg(Variant::Spotlight), &mut rng);
            let mut rng = ChaCha8Rng::seed_from_u64(seed + 100);
            let r = optimize_schedule(&model, &hw, &layer(), &cfg(Variant::SpotlightR), &mut rng);
            if s.objective_value(Objective::Edp) <= r.objective_value(Objective::Edp) {
                wins += 1;
            }
        }
        assert!(wins * 2 > trials, "Spotlight won only {wins}/{trials}");
    }

    #[test]
    fn fixed_dataflow_schedules_stay_in_menu() {
        let hw = Baseline::NvdlaLike.edge_config();
        let l = layer();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let menu: Vec<(Dim, Dim)> = DataflowStyle::RIGID
            .iter()
            .map(|&st| {
                let s = dataflow_schedule(st, &l, &hw);
                (s.outer_unroll(), s.inner_unroll())
            })
            .collect();
        for _ in 0..50 {
            let s = fixed_dataflow_sample(&mut rng, &l, &hw);
            assert!(menu.contains(&(s.outer_unroll(), s.inner_unroll())));
            // Only K and C may deviate from some base schedule's tiling;
            // chains must stay legal regardless.
            assert!(s.tiles().chain_is_legal());
        }
    }

    #[test]
    fn style_constrained_sampler_pins_unrolls() {
        let hw = Baseline::EyerissLike.edge_config();
        let l = layer();
        let base = dataflow_schedule(DataflowStyle::RowStationary, &l, &hw);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..50 {
            let s = style_constrained_sample(&mut rng, &l, &hw, DataflowStyle::RowStationary);
            assert_eq!(s.outer_unroll(), base.outer_unroll());
            assert_eq!(s.inner_unroll(), base.inner_unroll());
            assert_eq!(s.outer_order(), base.outer_order());
        }
    }

    /// Frozen copies of the samplers as they were before
    /// [`ScheduleSampler`]: every draw recomputes the divisor lists and
    /// rebuilds the dataflow skeleton it starts from. The prebuilt
    /// sampler must reproduce them draw for draw.
    mod frozen {
        use super::*;

        fn randomize_dims(
            rng: &mut dyn RngCore,
            base: &Schedule,
            layer: &ConvLayer,
            dims: &[Dim],
        ) -> Schedule {
            let mut l2: [u64; NUM_DIMS] = std::array::from_fn(|i| base.tiles().l2(DIMS[i]));
            let mut rf: [u64; NUM_DIMS] = std::array::from_fn(|i| base.tiles().rf(DIMS[i]));
            for &d in dims {
                let i = d.index();
                l2[i] = *divisors(layer.extent(d)).choose(rng).unwrap();
                rf[i] = *divisors(l2[i]).choose(rng).unwrap();
            }
            base.with_tiles(TileSizes::new(layer, l2, rf).unwrap())
        }

        pub fn uniform(rng: &mut dyn RngCore, layer: &ConvLayer) -> Schedule {
            let mut l2 = [1u64; NUM_DIMS];
            let mut rf = [1u64; NUM_DIMS];
            for (i, d) in DIMS.iter().enumerate() {
                l2[i] = *divisors(layer.extent(*d)).choose(rng).unwrap();
                rf[i] = *divisors(l2[i]).choose(rng).unwrap();
            }
            Schedule::new(
                TileSizes::new(layer, l2, rf).unwrap(),
                sample::sample_order(rng),
                sample::sample_order(rng),
                sample::sample_dim(rng),
                sample::sample_dim(rng),
            )
        }

        pub fn guided(rng: &mut dyn RngCore, layer: &ConvLayer, hw: &HardwareConfig) -> Schedule {
            if rng.gen_bool(0.5) {
                return uniform(rng, layer);
            }
            let style = *DataflowStyle::RIGID.choose(rng).unwrap();
            let base = dataflow_schedule(style, layer, hw);
            let redraw: Vec<Dim> = DIMS.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
            let mut s = randomize_dims(rng, &base, layer, &redraw);
            if rng.gen_bool(0.3) {
                s = Schedule::new(
                    *s.tiles(),
                    sample::sample_order(rng),
                    *s.inner_order(),
                    s.outer_unroll(),
                    s.inner_unroll(),
                );
            }
            if rng.gen_bool(0.3) {
                s = Schedule::new(
                    *s.tiles(),
                    *s.outer_order(),
                    sample::sample_order(rng),
                    sample::sample_dim(rng),
                    sample::sample_dim(rng),
                );
            }
            s
        }

        pub fn fixed_dataflow(
            rng: &mut dyn RngCore,
            layer: &ConvLayer,
            hw: &HardwareConfig,
        ) -> Schedule {
            let style = *DataflowStyle::RIGID.choose(rng).unwrap();
            let base = dataflow_schedule(style, layer, hw);
            randomize_dims(rng, &base, layer, &[Dim::K, Dim::C])
        }

        pub fn style_constrained(
            rng: &mut dyn RngCore,
            layer: &ConvLayer,
            hw: &HardwareConfig,
            style: DataflowStyle,
        ) -> Schedule {
            let base = dataflow_schedule(style, layer, hw);
            randomize_dims(rng, &base, layer, &DIMS)
        }
    }

    #[test]
    fn prebuilt_sampler_matches_frozen_per_draw_samplers() {
        use spotlight_space::{sample::sample_hw, ParamRanges};
        const DRAWS: usize = 12_000;
        let layers = [
            ConvLayer::new(1, 64, 3, 7, 7, 112, 112).with_stride(2),
            ConvLayer::new(1, 256, 64, 1, 1, 56, 56),
            ConvLayer::new(1, 128, 128, 3, 3, 28, 28),
            ConvLayer::new(1, 1000, 2048, 1, 1, 1, 1),
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let ranges = ParamRanges::edge();
        let hws: Vec<HardwareConfig> = [
            Baseline::EyerissLike,
            Baseline::NvdlaLike,
            Baseline::ShiDianNaoLike,
        ]
        .iter()
        .map(|b| b.edge_config())
        .chain((0..3).map(|_| sample_hw(&mut rng, &ranges)))
        .collect();
        type Draw<'a> = (
            &'a dyn Fn(&ScheduleSampler, &mut dyn RngCore) -> Schedule,
            &'a dyn Fn(&mut dyn RngCore, &ConvLayer, &HardwareConfig) -> Schedule,
        );
        let cases: [(&str, Draw); 6] = [
            (
                "uniform",
                (&|s, r| s.uniform(r), &|r, l, _| frozen::uniform(r, l)),
            ),
            ("guided", (&|s, r| s.guided(r), &frozen::guided)),
            (
                "fixed",
                (&|s, r| s.fixed_dataflow(r), &frozen::fixed_dataflow),
            ),
            (
                "row",
                (
                    &|s, r| s.style_constrained(r, DataflowStyle::RowStationary),
                    &|r, l, h| frozen::style_constrained(r, l, h, DataflowStyle::RowStationary),
                ),
            ),
            (
                "weight",
                (
                    &|s, r| s.style_constrained(r, DataflowStyle::WeightStationary),
                    &|r, l, h| frozen::style_constrained(r, l, h, DataflowStyle::WeightStationary),
                ),
            ),
            (
                "output",
                (
                    &|s, r| s.style_constrained(r, DataflowStyle::OutputStationary),
                    &|r, l, h| frozen::style_constrained(r, l, h, DataflowStyle::OutputStationary),
                ),
            ),
        ];
        // Each (layer, hw) case draws from all six kinds in turn on one
        // RNG stream, so every draw also starts from the state the
        // previous kind left behind.
        for (li, layer) in layers.iter().enumerate() {
            for (hi, hw) in hws.iter().enumerate() {
                let sampler = ScheduleSampler::new(layer, hw);
                let seed = (li * 10 + hi) as u64;
                let mut a = ChaCha8Rng::seed_from_u64(seed);
                let mut b = ChaCha8Rng::seed_from_u64(seed);
                for n in 0..DRAWS {
                    let (name, (prebuilt, reference)) = &cases[n % cases.len()];
                    assert_eq!(
                        prebuilt(&sampler, &mut a),
                        reference(&mut b, layer, hw),
                        "{name} draw {n} on {layer} / {hw:?}"
                    );
                }
                for _ in 0..4 {
                    assert_eq!(a.next_u64(), b.next_u64(), "RNG state differs on {layer}");
                }
            }
        }
    }

    #[test]
    fn infeasible_layers_return_infinite_objective() {
        // A 2-byte-RF-per-PE accelerator cannot hold even a unit tile
        // (one weight + one input + one output element = 3 bytes).
        let model = EvalEngine::default();
        let hw = HardwareConfig::new(512, 16, 16, 1, 64, 64).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let r = optimize_schedule(&model, &hw, &layer(), &cfg(Variant::SpotlightR), &mut rng);
        assert!(r.best.is_none());
        assert!(r.objective_value(Objective::Edp).is_infinite());
    }

    #[test]
    fn deterministic_under_seed() {
        let model = EvalEngine::default();
        let hw = Baseline::NvdlaLike.edge_config();
        let run = || {
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            optimize_schedule(&model, &hw, &layer(), &cfg(Variant::Spotlight), &mut rng)
                .objective_value(Objective::Edp)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn delay_objective_optimizes_delay() {
        let model = EvalEngine::default();
        let hw = Baseline::NvdlaLike.edge_config();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let c = SwSearchConfig {
            samples: 60,
            objective: Objective::Delay,
            variant: Variant::Spotlight,
        };
        let r = optimize_schedule(&model, &hw, &layer(), &c, &mut rng);
        let (_, report) = r.best.unwrap();
        // The found delay should beat the naive trivial schedule's delay.
        let trivial = CostModel::default()
            .evaluate(&hw, &Schedule::trivial(&layer()), &layer())
            .unwrap();
        assert!(report.delay_cycles < trivial.delay_cycles);
    }
}

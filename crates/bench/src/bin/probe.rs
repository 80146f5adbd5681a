use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spotlight::swsearch::{optimize_schedule, SwSearchConfig};
use spotlight::Variant;
use spotlight_accel::Baseline;
use spotlight_conv::ConvLayer;
use spotlight_eval::EvalEngine;
use spotlight_maestro::Objective;
use spotlight_space::dataflows::rigid_schedules;

fn main() {
    let hw = Baseline::EyerissLike.edge_config();
    let layer = ConvLayer::new(1, 128, 64, 3, 3, 28, 28);
    let model = EvalEngine::default();
    for (st, s) in rigid_schedules(&layer, &hw) {
        match model.evaluate(&hw, &s, &layer) {
            Ok(r) => println!(
                "{st:?}: edp {:.3e} delay {:.3e} util {:.2}",
                r.edp(),
                r.delay_cycles,
                r.pe_utilization
            ),
            Err(e) => println!("{st:?}: invalid ({e})"),
        }
    }
    for samples in [50, 150, 400] {
        let cfg = SwSearchConfig {
            samples,
            objective: Objective::Edp,
            variant: Variant::Spotlight,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let r = optimize_schedule(&model, &hw, &layer, &cfg, &mut rng);
        let (_, rep) = r.best.unwrap();
        println!(
            "spotlight {samples}: edp {:.3e} delay {:.3e} util {:.2}",
            rep.edp(),
            rep.delay_cycles,
            rep.pe_utilization
        );
    }
}

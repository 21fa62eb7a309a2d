//! The fuzz generation loop allocates nothing per genome: the screen runs
//! on one reusable simulator state, and breeding writes children into the
//! previous generation's genomes. The exact tier's lifts that stop early
//! allocate nothing either: they run on one reusable lift configuration and
//! one `Lifter`. A counting global allocator checks all three.

use ccac_model::{NetConfig, Thresholds};
use ccmatic::known;
use ccmatic::lift::{LiftConfig, LiftError, Lifter};
use ccmatic_fuzz::{
    run_fuzz, FitnessConfig, FuzzConfig, FuzzTarget, ModelCca, ScheduleGenome, Screen,
};
use ccmatic_num::{int, Rat, SmallRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations per thread (the test
/// harness runs tests on threads of their own).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn net() -> NetConfig {
    NetConfig { horizon: 6, history: 5, link_rate: Rat::one(), jitter: 1, buffer: None }
}

#[test]
fn screening_allocates_nothing_after_the_first_genome() {
    let cfg = FitnessConfig { net: net(), thresholds: Thresholds::default(), initial_cwnd: 1.0 };
    let rounds = cfg.net.history + cfg.net.horizon;
    let mut rng = SmallRng::seed_from_u64(5);
    let mut genomes: Vec<ScheduleGenome> =
        (0..200).map(|_| ScheduleGenome::random(&mut rng, rounds)).collect();
    // An ack-driven rule and a broken window the screen flags.
    let mut ccas = [ModelCca::new(&known::eq_iii()), ModelCca::new(&known::const_cwnd(int(6)))];
    let mut screen = Screen::new(&cfg);
    let (first, rest) = genomes.split_first_mut().unwrap();
    let backlog = first.backlog_f64();
    screen.evaluate(&mut ccas[0], first, backlog);
    let mut violated = 0;
    let n = allocations(|| {
        for g in rest.iter_mut() {
            let backlog = g.backlog_f64();
            for cca in &mut ccas {
                violated += screen.evaluate(cca, g, backlog).violated.is_some() as u32;
            }
        }
    });
    assert_eq!(n, 0, "screening {} genomes allocated {n} times", rest.len());
    assert!(violated > 0, "no genome was flagged; the screen ran trivially");
}

/// A run on a target the screen never flags does no exact work, so all
/// it allocates is set-up: a longer run allocates no more.
#[test]
fn generations_allocate_nothing_after_the_first() {
    let run = |generations| {
        let cfg = FuzzConfig {
            seed: 3,
            generations,
            population: 32,
            net: net(),
            thresholds: Thresholds::default(),
            initial_cwnd: Rat::one(),
            target: FuzzTarget::Spec(known::rocc()),
            skip_verify: true,
        };
        let mut report = None;
        let n = allocations(|| report = Some(run_fuzz(&cfg)));
        (n, report.unwrap())
    };
    let (short, short_report) = run(4);
    let (long, long_report) = run(40);
    // Every score below the violation bonus (1000): nothing was flagged.
    for report in [&short_report, &long_report] {
        assert!(report.best_fitness.iter().all(|&f| f < 1.0e3), "{:?}", report.best_fitness);
    }
    assert_eq!(long_report.counters.genomes_evaluated, 40 * 32);
    assert_eq!(
        long,
        short,
        "36 more generations allocated {} more times",
        long as i64 - short as i64
    );
}

/// Eq. (iii)'s lifts nearly all stop at an early round. After the first
/// lift has grown the buffers, writing a genome into the reused lift
/// configuration and lifting it allocates nothing when the lift stops.
#[test]
fn stopped_lifts_allocate_nothing_after_the_first() {
    let net = net();
    let rounds = net.history + net.horizon;
    let mut rng = SmallRng::seed_from_u64(9);
    let genomes: Vec<ScheduleGenome> =
        (0..1000).map(|_| ScheduleGenome::random(&mut rng, rounds)).collect();
    let spec = known::eq_iii();
    let mut cfg = LiftConfig { initial_cwnd: Rat::one(), ..LiftConfig::ideal(net) };
    let mut lifter = Lifter::default();
    let (first, rest) = genomes.split_first().unwrap();
    first.write_lift_config(&mut cfg);
    let _ = lifter.lift_checked(&spec, &cfg);
    let mut stopped = 0;
    for g in rest {
        let mut outcome = None;
        let n = allocations(|| {
            g.write_lift_config(&mut cfg);
            outcome = Some(lifter.lift_checked(&spec, &cfg));
        });
        if let Some(Err(LiftError::FloorAboveArrivals { round })) = outcome {
            assert_eq!(n, 0, "a lift stopped at round {round} allocated {n} times");
            stopped += 1;
        }
    }
    assert!(stopped > 30, "only {stopped} of {} lifts stopped early", rest.len());
}

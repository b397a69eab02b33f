//! Randomized tests of the simulation kernel against reference models:
//! the event queue versus a sorted stable list, statistics collectors
//! versus brute-force computation, and engine determinism over random
//! actor graphs. Cases come from the kernel's own [`DetRng`], so the
//! suite replays identically without an external property-testing crate.

use sesame_sim::{
    Actor, Context, DetRng, EventQueue, Histogram, MeanVar, SimDur, SimTime, Simulation,
    TimeWeighted,
};

/// The event queue pops exactly what a stable sort of (time, insertion
/// index) would produce.
#[test]
fn event_queue_matches_stable_sort() {
    let mut rng = DetRng::new(0x0E5);
    for _ in 0..64 {
        let len = rng.next_below(200) as usize;
        let times: Vec<u64> = (0..len).map(|_| rng.next_below(100)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut reference: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        reference.sort_by_key(|&(t, _)| t); // stable: insertion order ties
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_nanos(), i));
        }
        assert_eq!(popped, reference);
    }
}

/// Interleaved push/pop never violates the (time, FIFO) order among
/// the elements present in the queue at pop time.
#[test]
fn event_queue_interleaved_pops_are_monotone_per_batch() {
    let mut rng = DetRng::new(0x1E4);
    for _ in 0..64 {
        let ops = rng.next_range(1, 99) as usize;
        let mut q = EventQueue::new();
        let mut seq = 0usize;
        let mut last_popped: Option<(u64, usize)> = None;
        let mut max_time_popped = 0u64;
        for _ in 0..ops {
            let t = rng.next_below(50);
            if rng.chance(0.5) {
                // Pushing into the past relative to popped events is the
                // caller's responsibility; emulate a monotone clock.
                let t = t.max(max_time_popped);
                q.push(SimTime::from_nanos(t), seq);
                seq += 1;
            } else if let Some((t, i)) = q.pop() {
                let t = t.as_nanos();
                if let Some((lt, li)) = last_popped {
                    assert!(
                        t > lt || (t == lt && i > li),
                        "pop order violated: ({lt},{li}) then ({t},{i})"
                    );
                }
                last_popped = Some((t, i));
                max_time_popped = t;
            }
        }
    }
}

/// DetRng range helpers always stay in bounds.
#[test]
fn rng_bounds_hold() {
    let mut meta = DetRng::new(0xB0057);
    for _ in 0..64 {
        let seed = meta.next_u64();
        let lo = meta.next_below(1000);
        let span = meta.next_range(1, 999);
        let mut r = DetRng::new(seed);
        let hi = lo + span;
        for _ in 0..100 {
            let v = r.next_range(lo, hi);
            assert!((lo..=hi).contains(&v));
            let b = r.next_below(span);
            assert!(b < span);
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }
}

/// MeanVar equals the brute-force mean and variance.
#[test]
fn meanvar_matches_bruteforce() {
    let mut rng = DetRng::new(0x3EA7);
    for _ in 0..64 {
        let len = rng.next_range(1, 199) as usize;
        let xs: Vec<f64> = (0..len).map(|_| (rng.next_f64() - 0.5) * 2e6).collect();
        let mut m = MeanVar::new();
        for &x in &xs {
            m.record(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let scale = 1.0 + mean.abs() + var.abs();
        assert!((m.mean() - mean).abs() / scale < 1e-9);
        assert!((m.variance() - var).abs() / (1.0 + var) < 1e-6);
    }
}

/// Merged MeanVar accumulators equal one sequential accumulator.
#[test]
fn meanvar_merge_is_associative() {
    let mut rng = DetRng::new(0x4E6E);
    for _ in 0..64 {
        let len = rng.next_range(1, 99) as usize;
        let xs: Vec<f64> = (0..len).map(|_| (rng.next_f64() - 0.5) * 2e3).collect();
        let k = rng.next_below(xs.len() as u64) as usize;
        let mut whole = MeanVar::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = MeanVar::new();
        let mut b = MeanVar::new();
        for &x in &xs[..k] {
            a.record(x);
        }
        for &x in &xs[k..] {
            b.record(x);
        }
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-6);
        assert_eq!(a.count(), whole.count());
    }
}

/// Histogram quantiles bracket the true quantile within its power-of-
/// two bucket.
#[test]
fn histogram_quantile_brackets_truth() {
    let mut rng = DetRng::new(0x6157);
    for _ in 0..64 {
        let len = rng.next_range(1, 299) as usize;
        let samples: Vec<u64> = (0..len).map(|_| rng.next_range(1, 999_999)).collect();
        let q = 0.01 + rng.next_f64() * 0.98;
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(SimDur::from_nanos(s));
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
        let truth = sorted[idx];
        let est = h.quantile(q).as_nanos();
        // The estimate is the lower bound of the truth's bucket.
        assert!(est <= truth, "estimate {est} above truth {truth}");
        assert!(
            est * 2 > truth || est == 0 || truth <= 1,
            "estimate {est} more than 2x below truth {truth}"
        );
    }
}

/// TimeWeighted equals brute-force integration of the step signal.
#[test]
fn time_weighted_matches_integration() {
    let mut rng = DetRng::new(0x7173);
    for _ in 0..64 {
        let steps: Vec<(u64, f64)> = (0..rng.next_range(1, 49))
            .map(|_| (rng.next_range(1, 999), rng.next_f64() * 10.0))
            .collect();
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        let mut t = 0u64;
        let mut integral = 0.0;
        let mut level = 0.0;
        for &(dt, v) in &steps {
            integral += level * dt as f64;
            t += dt;
            tw.set(SimTime::from_nanos(t), v);
            level = v;
        }
        // Advance one more tick so the last level contributes.
        let end = t + 100;
        integral += level * 100.0;
        let expect = integral / end as f64;
        let got = tw.average(SimTime::from_nanos(end));
        assert!((got - expect).abs() < 1e-9, "{got} vs {expect}");
    }
}

/// A random relay network is deterministic: same seed, same event
/// count and end time.
#[test]
fn engine_is_deterministic_over_random_relays() {
    /// Six relays in one actor; a message is `(relay, hops left)`.
    struct Relays {
        edges: Vec<(usize, usize, u64)>,
        fired: [u32; 6],
        rng: DetRng,
    }
    impl Actor for Relays {
        type Msg = (usize, u32);
        fn handle(&mut self, (me, hops): (usize, u32), ctx: &mut Context<'_, (usize, u32)>) {
            self.fired[me] += 1;
            if hops == 0 {
                return;
            }
            // Forward along every outgoing edge, delay jittered by the
            // deterministic RNG.
            for &(src, dst, w) in &self.edges {
                if src == me {
                    let jitter = self.rng.next_below(w);
                    ctx.send(SimDur::from_nanos(w + jitter), (dst, hops - 1));
                }
            }
        }
    }
    let mut rng = DetRng::new(0x8E1A);
    for _ in 0..64 {
        let seed = rng.next_u64();
        let edges: Vec<(usize, usize, u64)> = (0..rng.next_range(1, 19))
            .map(|_| {
                (
                    rng.next_below(6) as usize,
                    rng.next_below(6) as usize,
                    rng.next_range(1, 499),
                )
            })
            .collect();
        let run = || {
            let mut sim = Simulation::new(Relays {
                edges: edges.clone(),
                fired: [0; 6],
                rng: DetRng::new(seed),
            });
            sim.set_event_limit(50_000);
            sim.schedule(SimTime::ZERO, (0, 4));
            let outcome = sim.run_to_completion();
            (
                sim.now(),
                sim.events_processed(),
                sim.actor().fired,
                outcome,
            )
        };
        assert_eq!(run(), run());
    }
}

/// What the fan-out toy's stations exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Toy {
    /// Bystander traffic; relays itself while `ttl` lasts.
    Noise {
        id: u32,
        ttl: u32,
    },
    /// Start a fan-out: `n` deliveries, `stride` nanoseconds apart.
    Fanout {
        n: u32,
        stride: u64,
    },
    Car(Car),
}

/// Delivery `k` of `n` of fan-out `id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Car {
    id: u32,
    k: u32,
    n: u32,
    stride: u64,
    /// How many fan-outs deep this one was started.
    depth: u32,
}

/// The toy's message: the station it is for, and what arrives there.
type ToyMsg = (u64, Toy);

/// A few stations in one actor, fanning out either eagerly — every
/// delivery sent at the fan-out instant — or as an event train continued
/// car by car. Everything else it does (logging, bystander sends, nested
/// fan-outs from inside a car's handler) is the same code drawing from the
/// same RNG, so the two modes stay in lockstep exactly as long as their
/// pop orders agree.
struct FanToy {
    lazy: bool,
    stations: u64,
    rng: DetRng,
    /// Every delivery: `(time, station, what)`.
    log: Vec<(u64, u64, Toy)>,
    next_id: u32,
}

impl FanToy {
    fn fan_out(&mut self, n: u32, stride: u64, depth: u32, ctx: &mut Context<'_, ToyMsg>) {
        let id = self.next_id;
        self.next_id += 1;
        let to = self.rng.next_below(self.stations);
        let first = ctx.now() + SimDur::from_nanos(self.rng.next_below(3));
        let car = |k| {
            let car = Car {
                id,
                k,
                n,
                stride,
                depth,
            };
            (to, Toy::Car(car))
        };
        if self.lazy {
            ctx.send_train_at(first, u64::from(n), car(0));
        } else {
            for k in 0..n {
                let at = first + SimDur::from_nanos(stride * u64::from(k));
                ctx.send_at(at, car(k));
            }
        }
    }

    /// A same-instant bystander, so fresh tie-break numbers are handed out
    /// all around the cars'.
    fn noise(&mut self, id: u32, ttl: u32, ctx: &mut Context<'_, ToyMsg>) {
        let to = self.rng.next_below(self.stations);
        let delay = SimDur::from_nanos(self.rng.next_below(3));
        ctx.send(delay, (to, Toy::Noise { id, ttl }));
    }
}

impl Actor for FanToy {
    type Msg = ToyMsg;
    fn handle(&mut self, (station, msg): ToyMsg, ctx: &mut Context<'_, ToyMsg>) {
        self.log.push((ctx.now().as_nanos(), station, msg));
        match msg {
            Toy::Noise { id, ttl } => {
                if ttl > 0 {
                    self.noise(id, ttl - 1, ctx);
                }
            }
            // Bystanders before and after the fan-out sends.
            Toy::Fanout { n, stride } => {
                self.noise(1000, 1, ctx);
                self.fan_out(n, stride, 0, ctx);
                self.noise(1001, 1, ctx);
            }
            Toy::Car(car) => {
                if self.rng.chance(0.5) {
                    self.noise(2000 + car.id, 1, ctx);
                }
                if car.depth < 2 && self.rng.chance(0.3) {
                    let (n, stride) = (self.rng.next_range(1, 4), self.rng.next_below(3));
                    self.fan_out(n as u32, stride, car.depth + 1, ctx);
                }
                if self.lazy && car.k + 1 < car.n {
                    let next = Toy::Car(Car {
                        k: car.k + 1,
                        ..car
                    });
                    let at = ctx.now() + SimDur::from_nanos(car.stride);
                    ctx.send_next_car_at(at, (station, next));
                }
                if self.rng.chance(0.5) {
                    self.noise(3000 + car.id, 0, ctx);
                }
            }
        }
    }
}

/// How the fan-out simulation is driven: every way the engine learns the
/// tie-break number of the event it dispatches.
#[derive(Debug, Clone, Copy)]
enum Drive {
    RunUntil,
    Step,
    StepSeq,
}

/// One seeded fan-out scenario; returns its delivery log.
fn fan_toy_log(seed: u64, lazy: bool, drive: Drive) -> Vec<(u64, u64, Toy)> {
    const STATIONS: u64 = 3;
    let mut sim = Simulation::new(FanToy {
        lazy,
        stations: STATIONS,
        rng: DetRng::new(seed),
        log: Vec::new(),
        next_id: 0,
    });
    sim.set_event_limit(20_000);
    let mut setup = DetRng::new(seed ^ 0x7a11);
    for i in 0..setup.next_range(2, 6) {
        let at = SimTime::from_nanos(setup.next_below(4));
        let to = setup.next_below(STATIONS);
        let msg = if setup.chance(0.6) {
            Toy::Fanout {
                n: setup.next_range(1, 6) as u32,
                stride: setup.next_below(3),
            }
        } else {
            Toy::Noise {
                id: i as u32,
                ttl: 3,
            }
        };
        sim.schedule(at, (to, msg));
    }
    match drive {
        Drive::RunUntil => {
            sim.run_to_completion();
        }
        Drive::Step => while sim.step() {},
        // The earliest pending event, taken out by number as the schedule
        // explorer does.
        Drive::StepSeq => {
            while let Some(seq) = sim.pending().first().map(|p| p.seq) {
                assert!(sim.step_seq(seq));
            }
        }
    }
    assert!(sim.events_processed() < 20_000, "seed {seed}: runaway toy");
    sim.into_parts().0.log
}

/// The event train's contract: continuing a fan-out car by car under the
/// reserved tie-break numbers delivers exactly what sending every car up
/// front delivers — same instants, same order — under same-instant
/// bystander traffic, zero strides and trains started from inside a
/// car's handler, however the engine is driven.
#[test]
fn event_trains_deliver_in_eager_order() {
    let mut cars = 0;
    for seed in 0..300u64 {
        let eager = fan_toy_log(seed, false, Drive::RunUntil);
        cars += eager
            .iter()
            .filter(|(_, _, m)| matches!(m, Toy::Car(car) if car.k > 0))
            .count();
        for drive in [Drive::RunUntil, Drive::Step, Drive::StepSeq] {
            let lazy = fan_toy_log(seed, true, drive);
            assert_eq!(lazy, eager, "seed {seed}, {drive:?}");
        }
    }
    assert!(cars > 1000, "only {cars} continued cars ran");
}

use crate::{DiodeBridge, HarvesterError, Result};

/// The electromagnetic microgenerator: a base-excited spring–mass–damper
/// with a coil/magnet transducer, feeding a [`DiodeBridge`].
///
/// Mechanics (paper §IV-A, ref \[9\]):
///
/// ```text
/// m z̈ + (c_m + c_e) ż + k z = −m a(t),    EMF e = Γ ż
/// ```
///
/// where `z` is the proof-mass displacement relative to the base, `a(t)`
/// the base acceleration, `Γ` the electromagnetic coupling and `c_e` the
/// electrical damping reflected from the load. [`steady_state`] solves the
/// loaded sinusoidal response self-consistently: the rectifier's average
/// extracted power defines `c_e`, which feeds back into the velocity
/// amplitude. The self-consistent amplitude is the answer of a bisection
/// that runs until a step leaves its bracket unchanged (at most 80 steps).
/// The solver replays that bisection's path bit for bit: a few secant
/// steps locate the root first, and the residual is evaluated only at the
/// midpoints within a relative 2⁻⁴⁴ of it, where rounding could decide
/// its sign.
///
/// [`steady_state`]: Microgenerator::steady_state
///
/// # Example
///
/// ```
/// let g = harvester::Microgenerator::paper();
/// let ss = g.steady_state(82.0, 82.0, 0.59, 2.8);
/// // At resonance and 60 mg the device class delivers on the order of
/// // 100 µW into the store.
/// assert!(ss.power_into_store > 20e-6 && ss.power_into_store < 500e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Microgenerator {
    mass: f64,
    mech_damping_ratio: f64,
    coupling: f64,
    coil_resistance: f64,
    bridge: DiodeBridge,
}

/// Steady-state operating point of the loaded generator at one frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyState {
    /// Relative displacement amplitude of the proof mass (m).
    pub displacement_amp: f64,
    /// Relative velocity amplitude (m/s).
    pub velocity_amp: f64,
    /// Open-loop EMF amplitude `Γ · velocity` (V).
    pub emf_amplitude: f64,
    /// Cycle-averaged current into the store (A).
    pub current_avg: f64,
    /// Cycle-averaged power delivered into the store (W).
    pub power_into_store: f64,
    /// Cycle-averaged power extracted from the mechanics (W).
    pub power_mechanical: f64,
    /// Effective electrical damping coefficient (N·s/m).
    pub electrical_damping: f64,
}

impl Microgenerator {
    /// Creates a generator.
    ///
    /// # Errors
    ///
    /// Returns [`HarvesterError::InvalidParameter`] for non-positive mass,
    /// damping ratio, coupling or coil resistance.
    pub fn new(
        mass: f64,
        mech_damping_ratio: f64,
        coupling: f64,
        coil_resistance: f64,
        bridge: DiodeBridge,
    ) -> Result<Self> {
        for (name, value) in [
            ("mass", mass),
            ("mech_damping_ratio", mech_damping_ratio),
            ("coupling", coupling),
            ("coil_resistance", coil_resistance),
        ] {
            if !(value > 0.0 && value.is_finite()) {
                return Err(HarvesterError::InvalidParameter { name, value });
            }
        }
        Ok(Microgenerator {
            mass,
            mech_damping_ratio,
            coupling,
            coil_resistance,
            bridge,
        })
    }

    /// Calibration used throughout the reproduction, matching the device
    /// class of the paper's refs \[9\]/\[12\]: 13 g proof mass, mechanical
    /// Q ≈ 160, 2.3 kΩ coil with a high-turn coupling of 55 V·s/m, Schottky
    /// bridge. Delivers ≈ 125 µW into a 2.8 V store at 60 mg on resonance,
    /// within the published 61.6–156.6 µW band of the real device.
    pub fn paper() -> Self {
        Microgenerator::new(
            0.013,
            1.0 / (2.0 * 160.0),
            55.0,
            2300.0,
            DiodeBridge::paper(),
        )
        .expect("paper calibration is valid")
    }

    /// Proof mass (kg).
    pub fn mass(&self) -> f64 {
        self.mass
    }

    /// Mechanical damping ratio ζ_m.
    pub fn mech_damping_ratio(&self) -> f64 {
        self.mech_damping_ratio
    }

    /// Electromagnetic coupling Γ (V·s/m).
    pub fn coupling(&self) -> f64 {
        self.coupling
    }

    /// Coil resistance (Ω).
    pub fn coil_resistance(&self) -> f64 {
        self.coil_resistance
    }

    /// The rectifier bridge this generator feeds.
    pub fn bridge(&self) -> &DiodeBridge {
        &self.bridge
    }

    /// Mechanical damping coefficient `c_m = 2 ζ_m m ω₀` at resonant
    /// frequency `f_res` (N·s/m).
    pub fn mech_damping(&self, f_res: f64) -> f64 {
        2.0 * self.mech_damping_ratio * self.mass * 2.0 * std::f64::consts::PI * f_res
    }

    /// Solves the loaded steady state at vibration frequency `f_vib` (Hz),
    /// generator resonance `f_res` (Hz), base acceleration amplitude
    /// `accel` (m/s²) and store voltage `v_store` (V).
    ///
    /// The self-consistent velocity amplitude solves
    /// `v = V(c_m + c_e(v))`; the residual is monotone over
    /// `(0, v_unloaded]`, so a bisection from `(1e-12, v_unloaded)` finds
    /// the equilibrium robustly (a plain fixed-point iteration oscillates
    /// for strongly coupled coils). Each bisection step is a pure function
    /// of its bracket, so the loop stops as soon as a step leaves both
    /// bounds bit-for-bit unchanged — every later step would too — and
    /// otherwise after 80 steps.
    ///
    /// The answer is that bisection's, bit for bit, from about 20
    /// evaluations of the loaded response per conducting solve instead of
    /// 56 (the conduction test and the reported operating point included),
    /// and about 18 from a close guess. Anderson–Björck secant steps
    /// from the conduction onset and `v_unloaded` first bracket the root,
    /// and the bracket is widened by a relative margin of 2⁻⁴⁴ (256–512
    /// ulps). Then the bisection runs its own path, with the same
    /// midpoints, stop and cap, but evaluates the residual only at
    /// midpoints inside the widened bracket. Elsewhere the sign is known:
    /// the residual falls with slope at most −1, so rounding can flip its
    /// sign only within a few ulps of the root (4 at most on the oracle's
    /// sweeps). [`steady_state_near`](Self::steady_state_near) starts the
    /// secant search from a guess and returns the same bits.
    ///
    /// # Panics
    ///
    /// Panics if `f_vib`, `f_res` or `accel` is not positive, or if
    /// `v_store` is negative. Also panics, naming the inputs, if the
    /// velocity amplitude is not finite: at excitation so large (above
    /// about 4e178 m/s² on resonance at 82 Hz) that `v²` overflows and the
    /// electrical damping `2P/v²` is NaN.
    pub fn steady_state(&self, f_vib: f64, f_res: f64, accel: f64, v_store: f64) -> SteadyState {
        self.steady_state_near(f_vib, f_res, accel, v_store, f64::NAN)
    }

    /// [`steady_state`](Self::steady_state) with the root search seeded
    /// near `near`, a guess at the answer's velocity amplitude (m/s): the
    /// previous solve's `velocity_amp` at the same frequencies and
    /// excitation and a nearby store voltage is a good one. The answer is
    /// `steady_state`'s, bit for bit, for every `near`, whether zero,
    /// negative, infinite or NaN: the guess changes only how many residual
    /// evaluations the solve makes. Before its secant steps the search
    /// evaluates the residual at `near · (1 ∓ 10⁻³)`, and each of the two
    /// points that falls strictly inside its bracket becomes the bracket
    /// end its sign names. From a guess within 10⁻³ of the answer, those
    /// two evaluations replace about six secant steps.
    ///
    /// # Panics
    ///
    /// As [`steady_state`](Self::steady_state).
    pub fn steady_state_near(
        &self,
        f_vib: f64,
        f_res: f64,
        accel: f64,
        v_store: f64,
        near: f64,
    ) -> SteadyState {
        assert!(f_vib > 0.0 && f_res > 0.0, "frequencies must be positive");
        assert!(accel > 0.0, "acceleration must be positive");
        assert!(v_store >= 0.0, "store voltage must be non-negative");
        let omega = 2.0 * std::f64::consts::PI * f_vib;
        let omega0 = 2.0 * std::f64::consts::PI * f_res;
        let detuning = (omega0 * omega0 - omega * omega).powi(2);
        let clamp = v_store + self.bridge.threshold();
        let c_m = self.mech_damping(f_res);

        // Relative velocity amplitude V(c) at total damping c:
        // |Z| = accel / denom, velocity = ω |Z|.
        let velocity_amplitude = |c_total: f64| {
            let denom = (detuning + (c_total / self.mass * omega).powi(2)).sqrt();
            omega * accel / denom
        };
        // The loaded response to a trial amplitude v: the electrical
        // damping c_e(v), defined by the rectifier's extracted power
        // through P = ½ c_e v², and the amplitude V(c_m + c_e(v)) it
        // allows.
        let loaded = |v: f64| {
            #[cfg(test)]
            tests::RESIDUALS.with(|n| n.set(n.get() + 1));
            let c_e = if v <= 1e-12 {
                0.0
            } else {
                let emf = self.coupling * v;
                2.0 * self
                    .bridge
                    .power_from_source(emf, clamp, self.coil_resistance)
                    / (v * v)
            };
            (c_e, velocity_amplitude(c_m + c_e))
        };

        // r(v) = V(c_m + c_e(v)) − v: positive at v→0⁺, non-positive at
        // v_unloaded.
        let v_unloaded = velocity_amplitude(c_m);
        let at_unloaded = loaded(v_unloaded);
        let r_unloaded = at_unloaded.1 - v_unloaded;
        // The operating point at the answer, reusing its evaluation where
        // the search already made it.
        let (c_e, velocity) = if r_unloaded >= 0.0 {
            // Bridge never conducts: the unloaded response is the answer.
            at_unloaded
        } else {
            // Below the conduction onset c_e = 0, so r(v) = v_unloaded − v.
            let onset = (clamp / self.coupling).max(1e-12);
            let residual = |v: f64| loaded(v).1 - v;
            let (below, above) = sign_known_outside(&residual, onset, v_unloaded, r_unloaded, near);
            // Bisection's own path, evaluating only near the root.
            let mut lo: f64 = 1e-12;
            let mut hi = v_unloaded;
            let mut at_trial = None;
            for _ in 0..80 {
                let mid = 0.5 * (lo + hi);
                let at_mid = (mid >= below && mid <= above).then(|| loaded(mid));
                let positive = at_mid.map_or(mid < below, |(_, v)| v - mid > 0.0);
                let bound = if positive { &mut lo } else { &mut hi };
                // The step would leave the bracket as it is: fixed point,
                // and the answer 0.5 · (lo + hi) is this midpoint.
                if bound.to_bits() == mid.to_bits() {
                    at_trial = at_mid;
                    break;
                }
                *bound = mid;
            }
            at_trial.unwrap_or_else(|| loaded(0.5 * (lo + hi)))
        };
        assert!(
            velocity.is_finite(),
            "steady_state(f_vib {f_vib:?}, f_res {f_res:?}, accel {accel:?}, v_store \
             {v_store:?}): velocity amplitude {velocity} is not finite"
        );

        // Report a fully consistent operating point.
        let emf = self.coupling * velocity;
        let avg = self
            .bridge
            .averages(emf.max(1e-12), v_store, self.coil_resistance);
        SteadyState {
            displacement_amp: velocity / omega,
            velocity_amp: velocity,
            emf_amplitude: emf,
            current_avg: avg.current_avg,
            power_into_store: avg.power_into_store,
            power_mechanical: avg.power_from_source,
            electrical_damping: c_e,
        }
    }
}

/// The replay's margin, relative to the root: [`sign_known_outside`]
/// stops once its bracket is this narrow and then widens it by this much
/// at each end. Rounding can flip the residual's sign only within a few
/// ulps of the root (DESIGN.md §7), and 2⁻⁴⁴ is 256–512 ulps.
const MARGIN: f64 = 1.0 / (1u64 << 44) as f64;

/// The relative offset of [`sign_known_outside`]'s two seed points from
/// its guess, `near · (1 ∓ SEED_OFFSET)`. Of 10⁻², 10⁻³, 10⁻⁴ and 10⁻⁵,
/// 10⁻³ made the fewest evaluations on envelope-engine traffic.
const SEED_OFFSET: f64 = 1e-3;

/// Brackets the root of the decreasing residual `r` and returns
/// `(below, above)`: `r(v) > 0` at every `v < below` and `r(v)` is not
/// positive at any `v > above`, so a bisection need not evaluate `r`
/// outside `[below, above]`.
///
/// The search starts from the conduction onset, where `r = v_unloaded −
/// onset > 0` analytically, and from `v_unloaded`, where `r_unloaded` was
/// evaluated. It first evaluates `r` at the seed points `near · (1 ∓
/// SEED_OFFSET)` that lie strictly inside the bracket, in that order, and
/// moves the end each one's sign names (a NaN, infinite or non-positive
/// `near` seeds nothing). Then it takes Anderson–Björck (regula falsi)
/// steps, kept a quarter of the stop width inside the bracket so that an
/// iterate on the root closes the bracket with one more step, and falls
/// back to the midpoint where the interpolation is NaN. The bracket's ends
/// are only ever points whose sign was evaluated, or the onset, and each
/// is pushed out by [`MARGIN`]. After 40 steps the bracket is returned as
/// it is, however wide, which costs evaluations and never bits.
fn sign_known_outside(
    r: &impl Fn(f64) -> f64,
    onset: f64,
    v_unloaded: f64,
    r_unloaded: f64,
    near: f64,
) -> (f64, f64) {
    let (mut a, mut fa) = (onset, v_unloaded - onset);
    let (mut b, mut fb) = (v_unloaded, r_unloaded);
    for x in [near * (1.0 - SEED_OFFSET), near * (1.0 + SEED_OFFSET)] {
        if a < x && x < b {
            let fx = r(x);
            if fx > 0.0 {
                (a, fa) = (x, fx);
            } else {
                (b, fb) = (x, fx);
            }
        }
    }
    // The end the previous step moved: −1 the lower, 1 the upper.
    let mut last = 0i8;
    let mut steps = 0;
    // Also false for an empty, infinite or NaN bracket.
    while steps < 40 && b - a > MARGIN * b {
        steps += 1;
        let gap = 0.25 * MARGIN * b;
        let x = b - fb * (b - a) / (fb - fa);
        let x = if x.is_nan() {
            0.5 * (a + b)
        } else {
            x.clamp(a + gap, b - gap)
        };
        let fx = r(x);
        if fx > 0.0 {
            if last < 0 {
                // The upper end held twice: scale its value down.
                let m = 1.0 - fx / fa;
                fb *= if m > 0.0 { m } else { 0.5 };
            }
            (a, fa, last) = (x, fx, -1);
        } else {
            if last > 0 {
                let m = 1.0 - fx / fb;
                fa *= if m > 0.0 { m } else { 0.5 };
            }
            (b, fb, last) = (x, fx, 1);
        }
    }
    (a - MARGIN * a, b + MARGIN * b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TuningMechanism;
    use numkit::rng::Rng;

    thread_local! {
        /// Evaluations of the loaded response (each residual is one) made
        /// by `steady_state_near` on this thread.
        pub(super) static RESIDUALS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    const ACCEL_60MG: f64 = 0.06 * 9.81;

    #[test]
    fn resonant_power_in_published_range() {
        let g = Microgenerator::paper();
        let ss = g.steady_state(82.0, 82.0, ACCEL_60MG, 2.8);
        // Published device: ~60–160 µW at 60 mg. Allow a generous band.
        assert!(
            ss.power_into_store > 3.0e-5 && ss.power_into_store < 4.0e-4,
            "P_store = {} W",
            ss.power_into_store
        );
        assert!(
            ss.emf_amplitude > 3.4,
            "EMF must clear the bridge: {}",
            ss.emf_amplitude
        );
    }

    #[test]
    fn power_drops_sharply_off_resonance() {
        let g = Microgenerator::paper();
        let tuned = g.steady_state(82.0, 82.0, ACCEL_60MG, 2.8);
        let detuned = g.steady_state(87.0, 82.0, ACCEL_60MG, 2.8);
        // 5 Hz detuning on a high-Q device: output collapses (paper §I).
        assert!(
            detuned.power_into_store < 0.05 * tuned.power_into_store,
            "tuned {} vs detuned {}",
            tuned.power_into_store,
            detuned.power_into_store
        );
    }

    #[test]
    fn power_scales_with_acceleration() {
        let g = Microgenerator::paper();
        let low = g.steady_state(82.0, 82.0, 0.3, 2.8);
        let high = g.steady_state(82.0, 82.0, 0.9, 2.8);
        assert!(high.power_into_store > low.power_into_store);
    }

    #[test]
    fn no_charging_into_overfull_store() {
        let g = Microgenerator::paper();
        // Store voltage far above the achievable EMF: no current flows.
        let ss = g.steady_state(82.0, 82.0, 0.01, 50.0);
        assert_eq!(ss.power_into_store, 0.0);
        assert_eq!(ss.current_avg, 0.0);
    }

    #[test]
    fn electrical_damping_reduces_motion() {
        let g = Microgenerator::paper();
        let loaded = g.steady_state(82.0, 82.0, ACCEL_60MG, 2.8);
        // Unloaded amplitude (store voltage so high the bridge never opens).
        let unloaded = g.steady_state(82.0, 82.0, ACCEL_60MG, 100.0);
        assert!(loaded.velocity_amp < unloaded.velocity_amp);
        assert!(loaded.electrical_damping > 0.0);
        assert_eq!(unloaded.electrical_damping, 0.0);
    }

    #[test]
    fn energy_balance_holds() {
        let g = Microgenerator::paper();
        let ss = g.steady_state(82.0, 82.0, ACCEL_60MG, 2.8);
        assert!(ss.power_mechanical >= ss.power_into_store);
        // Extracted power must not exceed the theoretical resonant bound
        // P_max = m a² / (16 ζ_m ω) (maximum power transfer at c_e = c_m).
        let omega = 2.0 * std::f64::consts::PI * 82.0;
        let p_max = g.mass() * ACCEL_60MG * ACCEL_60MG / (16.0 * g.mech_damping_ratio() * omega);
        assert!(
            ss.power_mechanical <= p_max * 1.001,
            "P_mech {} exceeds bound {}",
            ss.power_mechanical,
            p_max
        );
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Microgenerator::new(0.0, 0.01, 50.0, 2300.0, DiodeBridge::paper()).is_err());
        assert!(Microgenerator::new(0.01, -0.1, 50.0, 2300.0, DiodeBridge::paper()).is_err());
        assert!(Microgenerator::new(0.01, 0.01, 50.0, f64::NAN, DiodeBridge::paper()).is_err());
    }

    #[test]
    fn steady_state_is_continuous_in_frequency() {
        // The fixed point should not jump wildly between nearby inputs.
        let g = Microgenerator::paper();
        let mut prev = g.steady_state(78.0, 82.0, ACCEL_60MG, 2.8).power_into_store;
        let mut f = 78.1;
        while f <= 86.0 {
            let p = g.steady_state(f, 82.0, ACCEL_60MG, 2.8).power_into_store;
            // Allow the physical conduction-onset snap (the EMF first
            // clearing the bridge threshold) but no larger jumps.
            assert!(
                (p - prev).abs() < (0.6 * prev).max(4e-5),
                "jump at {f}: {prev} -> {p}"
            );
            prev = p;
            f += 0.1;
        }
    }

    /// The oracle's near-resonance sweep (seed `0x5eed_0014`): 20 000
    /// points within ±3 Hz of resonance, 11 239 of them conducting.
    fn near_resonance_sweep() -> impl Iterator<Item = [f64; 4]> {
        let (f_lo, f_hi) = TuningMechanism::paper().frequency_range();
        let mut rng = Rng::new(0x5eed_0014);
        (0..20_000).map(move |_| {
            let f_res = rng.uniform(f_lo, f_hi);
            let f_vib = f_res + rng.uniform(-3.0, 3.0);
            let accel = rng.uniform(0.01, 2.0);
            let v_store = rng.uniform(0.0, 4.0);
            [f_vib, f_res, accel, v_store]
        })
    }

    #[test]
    fn residual_sign_noise_stays_far_inside_the_margin() {
        // The replay trusts the residual's sign at every midpoint more than
        // MARGIN from its bracket. Scan a sixteenth of that around
        // bisection's answer: every sign that contradicts monotonicity
        // must lie in the scan's inner half.
        let g = Microgenerator::paper();
        let mut conducting = 0usize;
        for [f_vib, f_res, accel, v_store] in near_resonance_sweep() {
            // The residual rebuilt from the public accessors, as the
            // oracle in tests/steady_state_oracle.rs builds it.
            let omega = 2.0 * std::f64::consts::PI * f_vib;
            let omega0 = 2.0 * std::f64::consts::PI * f_res;
            let velocity_amplitude = |c_total: f64| {
                let denom = ((omega0 * omega0 - omega * omega).powi(2)
                    + (c_total / g.mass() * omega).powi(2))
                .sqrt();
                omega * accel / denom
            };
            let c_m = g.mech_damping(f_res);
            let loaded = |v: f64| {
                let c_e = if v <= 1e-12 {
                    0.0
                } else {
                    let emf = g.coupling() * v;
                    let avg = g.bridge().averages(emf, v_store, g.coil_resistance());
                    2.0 * avg.power_from_source / (v * v)
                };
                velocity_amplitude(c_m + c_e)
            };
            let r = |v: f64| loaded(v) - v;

            let v_unloaded = velocity_amplitude(c_m);
            if r(v_unloaded) >= 0.0 {
                continue;
            }
            conducting += 1;
            let (mut lo, mut hi) = (1e-12_f64, v_unloaded);
            for _ in 0..80 {
                let mid = 0.5 * (lo + hi);
                let bound = if r(mid) > 0.0 { &mut lo } else { &mut hi };
                if bound.to_bits() == mid.to_bits() {
                    break;
                }
                *bound = mid;
            }
            let root = 0.5 * (lo + hi);
            let solved = g.steady_state(f_vib, f_res, accel, v_store);
            assert_eq!(loaded(root).to_bits(), solved.velocity_amp.to_bits());

            let reach = MARGIN / 16.0 * root;
            for step in [-1_i64, 1] {
                let mut v = root;
                for ulps in 1.. {
                    v = f64::from_bits(v.to_bits().wrapping_add_signed(step));
                    if (v - root).abs() > reach {
                        break;
                    }
                    if (r(v) > 0.0) == (step > 0) {
                        assert!(
                            (v - root).abs() <= reach / 2.0,
                            "r({v:e}) has the wrong sign {ulps} ulps from bisection's \
                             answer {root:e} at ({f_vib}, {f_res}, {accel}, {v_store})"
                        );
                    }
                }
            }
        }
        // Measured: no sign contradicts monotonicity farther than 4 ulps
        // out, and the scan's inner half reaches 8–16.
        assert!(conducting > 10_000, "{conducting} points conducted");
    }

    #[test]
    fn conducting_solves_make_at_most_30_residual_evaluations() {
        // Plain bisection made 56.5 per conducting solve on this sweep,
        // counting the conduction test at v_unloaded and the final
        // operating point.
        let g = Microgenerator::paper();
        let (mut solves, mut evaluations) = (0u64, 0u64);
        for [f_vib, f_res, accel, v_store] in near_resonance_sweep() {
            RESIDUALS.with(|n| n.set(0));
            if g.steady_state(f_vib, f_res, accel, v_store)
                .electrical_damping
                > 0.0
            {
                solves += 1;
                evaluations += RESIDUALS.with(|n| n.get());
            }
        }
        let mean = evaluations as f64 / solves as f64;
        assert!(
            solves > 10_000 && mean <= 30.0,
            "{mean:.2} residual evaluations per conducting solve over {solves} solves"
        );
    }

    #[test]
    fn seeded_solves_along_a_store_voltage_walk_make_at_most_19_evaluations() {
        // The envelope engine re-solves at the same frequencies and
        // excitation once its store has moved 2 mV, seeded with the last
        // answer. Walk each sweep point's store up in 2 mV steps.
        let g = Microgenerator::paper();
        let (mut solves, mut seeded, mut unseeded) = (0u64, 0u64, 0u64);
        for [f_vib, f_res, accel, v_store] in near_resonance_sweep().step_by(4) {
            let mut near = g.steady_state(f_vib, f_res, accel, v_store).velocity_amp;
            for step in 1..=5 {
                let v = v_store + 2e-3 * f64::from(step);
                RESIDUALS.with(|n| n.set(0));
                let hinted = g.steady_state_near(f_vib, f_res, accel, v, near);
                let hinted_evaluations = RESIDUALS.with(|n| n.replace(0));
                let plain = g.steady_state(f_vib, f_res, accel, v);
                assert_eq!(
                    hinted, plain,
                    "seeded from {near:e} at ({f_vib}, {f_res}, {accel}, {v})"
                );
                if plain.electrical_damping > 0.0 {
                    solves += 1;
                    seeded += hinted_evaluations;
                    unseeded += RESIDUALS.with(|n| n.get());
                }
                near = hinted.velocity_amp;
            }
        }
        let mean = |n: u64| n as f64 / solves as f64;
        assert!(
            solves > 10_000 && mean(seeded) <= 19.0,
            "{:.2} evaluations per seeded conducting solve ({:.2} unseeded) over {solves} solves",
            mean(seeded),
            mean(unseeded)
        );
    }
}

use msim::newton::newton_scalar;

/// A full diode-bridge rectifier feeding a large storage capacitor.
///
/// Two complementary views are provided, matching the two simulation
/// engines:
///
/// * **Average model** ([`DiodeBridge::averages`]) — for a sinusoidal EMF
///   `e(θ) = E sin θ` behind a series (coil) resistance, conduction occurs
///   while `E |sin θ| > V + 2 V_d`. The cycle-averaged charging current and
///   power transfers have closed forms in the conduction angle; the
///   accelerated envelope engine uses them directly.
/// * **Transient model** ([`DiodeBridge::transient_current`],
///   [`DiodeBridge::transient_current_shockley`]) — instantaneous bridge
///   current for the full ODE co-simulation, with either constant-drop or
///   Shockley diodes (the latter solved per call with Newton–Raphson).
///
/// # Example
///
/// ```
/// let bridge = harvester::DiodeBridge::paper();
/// // 6 V EMF amplitude into a 2.8 V store through 2.3 kΩ of coil:
/// let avg = bridge.averages(6.0, 2.8, 2300.0);
/// assert!(avg.current_avg > 0.0);
/// assert!(avg.power_into_store < avg.power_from_source); // losses exist
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiodeBridge {
    /// Constant forward drop per diode used by the average and
    /// constant-drop transient models (V).
    v_drop: f64,
    /// Shockley saturation current (A).
    saturation_current: f64,
    /// Shockley `n · V_T` product (V).
    thermal_voltage: f64,
}

/// Cycle-averaged power-transfer summary of the bridge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BridgeAverages {
    /// Average current delivered into the store (A).
    pub current_avg: f64,
    /// Average power drawn from the EMF source, i.e. removed from the
    /// mechanical domain (W).
    pub power_from_source: f64,
    /// Average power delivered into the store at its voltage (W).
    pub power_into_store: f64,
    /// Conduction angle `θ_c` (rad): conduction spans `(θ_c, π − θ_c)`
    /// each half cycle. `π/2` means no conduction.
    pub conduction_angle: f64,
}

impl BridgeAverages {
    /// A zero-transfer result (EMF below the conduction threshold).
    fn blocked() -> Self {
        BridgeAverages {
            current_avg: 0.0,
            power_from_source: 0.0,
            power_into_store: 0.0,
            conduction_angle: std::f64::consts::FRAC_PI_2,
        }
    }
}

/// Conduction geometry of a sinusoidal EMF `E sin θ` against the bridge
/// clamp `V + 2 V_d`: conduction spans `(θ_c, π − θ_c)` each half cycle.
struct Conduction {
    theta_c: f64,
    /// `π − 2 θ_c`.
    span: f64,
    cos_c: f64,
    /// `sin θ_c = clamp / E`.
    sin_c: f64,
}

impl Conduction {
    /// The geometry for EMF amplitude `emf`, or `None` when the EMF never
    /// exceeds `clamp` (the bridge stays blocked).
    fn of(emf: f64, clamp: f64) -> Option<Self> {
        if emf <= clamp || emf <= 0.0 {
            return None;
        }
        let ratio = clamp / emf;
        let theta_c = ratio.asin();
        Some(Conduction {
            theta_c,
            span: std::f64::consts::PI - 2.0 * theta_c,
            cos_c: theta_c.cos(),
            sin_c: ratio,
        })
    }

    /// Power drawn from the source, `(1/π) ∫ E sinθ · i(θ) dθ`, floored
    /// at zero.
    fn power_from_source(&self, emf: f64, clamp: f64, r_series: f64) -> f64 {
        let sin_sq_integral = self.span / 2.0 + self.sin_c * self.cos_c;
        let power = emf / (std::f64::consts::PI * r_series)
            * (emf * sin_sq_integral - clamp * 2.0 * self.cos_c);
        power.max(0.0)
    }
}

impl DiodeBridge {
    /// Creates a bridge with the given per-diode constant drop and Shockley
    /// parameters.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive.
    pub fn new(v_drop: f64, saturation_current: f64, thermal_voltage: f64) -> Self {
        assert!(v_drop > 0.0, "diode drop must be positive");
        assert!(
            saturation_current > 0.0,
            "saturation current must be positive"
        );
        assert!(thermal_voltage > 0.0, "thermal voltage must be positive");
        DiodeBridge {
            v_drop,
            saturation_current,
            thermal_voltage,
        }
    }

    /// Schottky-diode bridge as used for µW-scale harvesters
    /// (constant drop V_d = 0.3 V; Shockley I_s = 1 µA, n·V_T = 28 mV).
    pub fn paper() -> Self {
        DiodeBridge::new(0.3, 1e-6, 0.028)
    }

    /// Constant forward drop per diode (V).
    pub fn v_drop(&self) -> f64 {
        self.v_drop
    }

    /// Total series threshold of the bridge (two conducting diodes).
    pub fn threshold(&self) -> f64 {
        2.0 * self.v_drop
    }

    /// Cycle-averaged transfers for EMF amplitude `emf`, store voltage
    /// `v_store` and series resistance `r_series`.
    ///
    /// Returns all-zero transfers (conduction angle `π/2`) when the EMF
    /// never exceeds `v_store + 2 V_d`.
    ///
    /// # Panics
    ///
    /// Panics if `r_series` is not positive or `v_store` is negative.
    pub fn averages(&self, emf: f64, v_store: f64, r_series: f64) -> BridgeAverages {
        assert!(r_series > 0.0, "series resistance must be positive");
        assert!(v_store >= 0.0, "store voltage must be non-negative");
        let clamp = v_store + self.threshold();
        let Some(c) = Conduction::of(emf, clamp) else {
            return BridgeAverages::blocked();
        };

        // I_avg over a half cycle (both half cycles are identical):
        // (1/π) ∫ (E sinθ − clamp)/R dθ over (θc, π−θc)
        let current_avg =
            (2.0 * emf * c.cos_c - clamp * c.span) / (std::f64::consts::PI * r_series);

        BridgeAverages {
            current_avg: current_avg.max(0.0),
            power_from_source: c.power_from_source(emf, clamp, r_series),
            power_into_store: (current_avg * v_store).max(0.0),
            conduction_angle: c.theta_c,
        }
    }

    /// `averages(emf, v_store, r_series).power_from_source`, bit for bit,
    /// given the clamp `v_store + threshold()` precomputed by the caller
    /// and skipping the unused current and store-power terms: the inner
    /// loop of [`crate::Microgenerator::steady_state`] needs nothing else.
    /// The caller guarantees the preconditions `averages` asserts.
    pub(crate) fn power_from_source(&self, emf: f64, clamp: f64, r_series: f64) -> f64 {
        Conduction::of(emf, clamp).map_or(0.0, |c| c.power_from_source(emf, clamp, r_series))
    }

    /// Instantaneous charging current with constant-drop diodes: the
    /// current pushed into the store when the (signed) EMF `emf_t` exceeds
    /// the conduction threshold through `r_series`. Always non-negative
    /// (the bridge commutates).
    ///
    /// # Panics
    ///
    /// Panics if `r_series` is not positive.
    pub fn transient_current(&self, emf_t: f64, v_store: f64, r_series: f64) -> f64 {
        assert!(r_series > 0.0, "series resistance must be positive");
        let clamp = v_store.max(0.0) + self.threshold();
        let drive = emf_t.abs() - clamp;
        if drive > 0.0 {
            drive / r_series
        } else {
            0.0
        }
    }

    /// Instantaneous charging current with Shockley diodes
    /// (`i = I_s (exp(v/nV_T) − 1)` per diode, two in series), solved with
    /// Newton–Raphson. Falls back to the constant-drop model if the
    /// iteration fails (extremely high injection).
    ///
    /// # Panics
    ///
    /// Panics if `r_series` is not positive.
    pub fn transient_current_shockley(&self, emf_t: f64, v_store: f64, r_series: f64) -> f64 {
        assert!(r_series > 0.0, "series resistance must be positive");
        let e = emf_t.abs();
        let v = v_store.max(0.0);
        if e <= v {
            return 0.0;
        }
        let is = self.saturation_current;
        let nvt = self.thermal_voltage;
        // KVL: e = i·R + 2·v_diode(i) + v, v_diode = nVt ln(i/Is + 1)
        let residual = |i: f64| {
            let i_clamped = i.max(0.0);
            i_clamped * r_series + 2.0 * nvt * (i_clamped / is + 1.0).ln() + v - e
        };
        let derivative = |i: f64| {
            let i_clamped = i.max(0.0);
            r_series + 2.0 * nvt / (i_clamped + is)
        };
        let guess = ((e - v - self.threshold()) / r_series).max(1e-9);
        match newton_scalar(residual, derivative, guess, 1e-12, 60) {
            Ok(i) => i.max(0.0),
            Err(_) => self.transient_current(emf_t, v_store, r_series),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_below_threshold() {
        let b = DiodeBridge::paper();
        let avg = b.averages(2.0, 2.8, 1000.0); // needs > 3.4 V
        assert_eq!(avg.current_avg, 0.0);
        assert_eq!(avg.power_into_store, 0.0);
        assert_eq!(b.transient_current(3.0, 2.8, 1000.0), 0.0);
    }

    #[test]
    fn conduction_angle_shrinks_with_larger_emf() {
        let b = DiodeBridge::paper();
        let small = b.averages(4.0, 2.8, 1000.0);
        let large = b.averages(10.0, 2.8, 1000.0);
        assert!(large.conduction_angle < small.conduction_angle);
        assert!(large.current_avg > small.current_avg);
    }

    #[test]
    fn average_model_matches_numerical_quadrature() {
        let b = DiodeBridge::paper();
        let (emf, v, r) = (6.0, 2.8, 2300.0);
        let avg = b.averages(emf, v, r);
        // Numerically integrate the transient model over one full cycle.
        let n = 200_000;
        let mut i_sum = 0.0;
        let mut p_src = 0.0;
        for k in 0..n {
            let theta = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
            let e_t = emf * theta.sin();
            let i = b.transient_current(e_t, v, r);
            i_sum += i;
            p_src += e_t.abs() * i;
        }
        let i_num = i_sum / n as f64;
        let p_num = p_src / n as f64;
        assert!(
            (avg.current_avg - i_num).abs() < 1e-3 * i_num.max(1e-12),
            "I_avg {} vs numeric {}",
            avg.current_avg,
            i_num
        );
        assert!(
            (avg.power_from_source - p_num).abs() < 2e-3 * p_num.max(1e-12),
            "P_src {} vs numeric {}",
            avg.power_from_source,
            p_num
        );
    }

    #[test]
    fn energy_conservation_in_averages() {
        // Power from source >= power into store (diode + resistive losses).
        let b = DiodeBridge::paper();
        for emf in [4.0, 5.0, 8.0, 12.0] {
            let avg = b.averages(emf, 2.8, 2300.0);
            assert!(
                avg.power_from_source >= avg.power_into_store,
                "emf {emf}: source {} < store {}",
                avg.power_from_source,
                avg.power_into_store
            );
        }
    }

    #[test]
    fn transient_commutates_both_polarities() {
        let b = DiodeBridge::paper();
        let pos = b.transient_current(5.0, 2.0, 100.0);
        let neg = b.transient_current(-5.0, 2.0, 100.0);
        assert_eq!(pos, neg);
        assert!(pos > 0.0);
    }

    #[test]
    fn shockley_close_to_constant_drop_at_moderate_current() {
        let b = DiodeBridge::paper();
        let i_const = b.transient_current(6.0, 2.8, 2300.0);
        let i_shock = b.transient_current_shockley(6.0, 2.8, 2300.0);
        // Same order of magnitude; Shockley drop at ~1 mA is ~0.2–0.4 V.
        let rel = (i_const - i_shock).abs() / i_const;
        assert!(rel < 0.3, "const {i_const} vs shockley {i_shock}");
    }

    #[test]
    fn shockley_zero_below_store_voltage() {
        let b = DiodeBridge::paper();
        assert_eq!(b.transient_current_shockley(1.0, 2.8, 1000.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_resistance_panics() {
        DiodeBridge::paper().averages(5.0, 2.8, 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_construction_panics() {
        let _ = DiodeBridge::new(0.0, 1e-6, 0.026);
    }
}

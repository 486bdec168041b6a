use doe::{DesignSpace, Factor};
use wsn_node::{fold_bytes, fold_fingerprint, NodeConfig};

use crate::{DseError, Result};

/// The paper's Table V design space:
///
/// | factor          | range           | coded symbol |
/// |-----------------|-----------------|--------------|
/// | `clock_hz`      | 125 kHz – 8 MHz | x1           |
/// | `watchdog_s`    | 60 – 600 s      | x2           |
/// | `tx_interval_s` | 0.005 – 10 s    | x3           |
///
/// # Example
///
/// ```
/// let space = wsn_dse::paper_design_space();
/// assert_eq!(space.dimension(), 3);
/// assert_eq!(space.factors()[0].name(), "clock_hz");
/// ```
pub fn paper_design_space() -> DesignSpace {
    DesignSpace::new(vec![
        Factor::new("clock_hz", 125e3, 8e6).expect("valid Table V range"),
        Factor::new("watchdog_s", 60.0, 600.0).expect("valid Table V range"),
        Factor::new("tx_interval_s", 0.005, 10.0).expect("valid Table V range"),
    ])
    .expect("three factors")
}

/// Name of the optional fourth factor: the hardware-timer quantum (s)
/// that the watchdog period snaps to. Real sensor platforms schedule
/// wake-ups on a coarse low-power timer tick, so the *achievable*
/// measurement intervals form a grid rather than a continuum (Picu et
/// al., PAPERS.md); making the tick a factor lets the DSE trade timer
/// granularity against the tuning schedule it quantises.
pub const TIMER_FACTOR: &str = "timer_quantum_s";

/// Bounds of the timer-quantum factor (s): from a fine 0.5 s tick
/// (effectively the continuous Table V behaviour at watchdog scale) up
/// to a 60 s tick that forces the watchdog onto a 10-slot grid.
pub const TIMER_QUANTUM_RANGE: (f64, f64) = (0.5, 60.0);

/// The Table V space widened by the optional [`TIMER_FACTOR`] — the
/// builder for four-factor flows. Three-factor spaces (and therefore
/// every legacy fingerprint, cache key and report) are untouched:
/// the fourth factor only exists in spaces built through this function.
///
/// # Example
///
/// ```
/// let space = wsn_dse::paper_design_space_with_timer();
/// assert_eq!(space.dimension(), 4);
/// assert_eq!(space.factors()[3].name(), wsn_dse::TIMER_FACTOR);
/// ```
pub fn paper_design_space_with_timer() -> DesignSpace {
    let mut factors = paper_design_space().factors().to_vec();
    factors.push(
        Factor::new(TIMER_FACTOR, TIMER_QUANTUM_RANGE.0, TIMER_QUANTUM_RANGE.1)
            .expect("valid timer range"),
    );
    DesignSpace::new(factors).expect("four factors")
}

/// Decodes a coded point of the Table V space — `(x1, x2, x3)`, or
/// `(x1, x2, x3, x4)` for spaces carrying the optional [`TIMER_FACTOR`]
/// — into a validated [`NodeConfig`], clamping the tiny floating-point
/// overshoot that exact ±1 coordinates can produce.
///
/// For four-factor spaces the decoded timer quantum snaps the watchdog
/// period onto the timer grid (`round(watchdog / quantum) · quantum`,
/// clamped back into the watchdog range): a coarse tick degrades how
/// precisely the tuning schedule can be placed, which is exactly the
/// effect the extra factor exists to expose.
///
/// # Errors
///
/// Returns [`DseError::InvalidArgument`] for a wrong-dimension point or
/// an unrecognised fourth factor, and propagates configuration errors
/// for points far outside the space.
pub fn coded_to_config(space: &DesignSpace, coded: &[f64]) -> Result<NodeConfig> {
    if coded.len() != space.dimension() {
        return Err(DseError::InvalidArgument(
            "coded point dimension must match the space",
        ));
    }
    let factors = space.factors();
    match space.dimension() {
        3 => {}
        4 if factors[3].name() == TIMER_FACTOR => {}
        _ => {
            return Err(DseError::InvalidArgument(
                "space must have 3 factors, or 4 with a timer_quantum_s fourth factor",
            ))
        }
    }
    let natural = space.decode(coded)?;
    let clamp = |v: f64, f: &Factor| v.clamp(f.min(), f.max());
    let mut watchdog = clamp(natural[1], &factors[1]);
    if space.dimension() == 4 {
        let quantum = clamp(natural[3], &factors[3]);
        let ticks = (watchdog / quantum).round().max(1.0);
        watchdog = clamp(ticks * quantum, &factors[1]);
    }
    Ok(NodeConfig::new(
        clamp(natural[0], &factors[0]),
        watchdog,
        clamp(natural[2], &factors[2]),
    )?)
}

/// Codes a [`NodeConfig`] into the Table V coded coordinates.
///
/// For a four-factor space the timer coordinate is pinned to `-1` — the
/// finest quantum, i.e. the legacy continuous-watchdog behaviour — since
/// a [`NodeConfig`] carries no timer field of its own.
///
/// # Errors
///
/// Returns dimension errors from the space (none for the paper space).
pub fn config_to_coded(space: &DesignSpace, config: &NodeConfig) -> Result<Vec<f64>> {
    let mut natural = vec![config.clock_hz, config.watchdog_s, config.tx_interval_s];
    if space.dimension() == 4 {
        natural.push(space.factors()[3].min());
    }
    Ok(space.code(&natural)?)
}

/// A stable fingerprint of a design space: factor names and exact bound
/// bits, FNV-1a hashed.
///
/// Coded coordinates only mean something *relative to a space* — the
/// centre of one space is a corner of another — so cache keys built from
/// coded points fold this fingerprint into their scenario component.
/// That is what makes the persistent [`crate::EvalCache`] safe across
/// spaces, such as `refine`'s zoomed second phase or the fourth factor
/// of `pareto --timer-space`: two spaces that differ in any bound (or
/// factor name) can never exchange cached values.
pub fn space_fingerprint(space: &DesignSpace) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    let dimension = fold_fingerprint(FNV_OFFSET, space.dimension() as u64);
    space.factors().iter().fold(dimension, |h, factor| {
        // The name terminator keeps two names from aliasing as one.
        let h = fold_bytes(fold_bytes(h, factor.name().as_bytes()), &[0]);
        fold_fingerprint(
            fold_fingerprint(h, factor.min().to_bits()),
            factor.max().to_bits(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_space_matches_table_v() {
        let s = paper_design_space();
        let f = s.factors();
        assert_eq!((f[0].min(), f[0].max()), (125e3, 8e6));
        assert_eq!((f[1].min(), f[1].max()), (60.0, 600.0));
        assert_eq!((f[2].min(), f[2].max()), (0.005, 10.0));
    }

    #[test]
    fn config_roundtrip() {
        let space = paper_design_space();
        let original = NodeConfig::original();
        let coded = config_to_coded(&space, &original).unwrap();
        let back = coded_to_config(&space, &coded).unwrap();
        assert!((back.clock_hz - original.clock_hz).abs() < 1.0);
        assert!((back.watchdog_s - original.watchdog_s).abs() < 1e-9);
        assert!((back.tx_interval_s - original.tx_interval_s).abs() < 1e-9);
    }

    #[test]
    fn corners_decode_to_range_ends() {
        let space = paper_design_space();
        let lo = coded_to_config(&space, &[-1.0, -1.0, -1.0]).unwrap();
        assert!((lo.clock_hz - 125e3).abs() < 1e-6);
        assert!((lo.tx_interval_s - 0.005).abs() < 1e-12);
        let hi = coded_to_config(&space, &[1.0, 1.0, 1.0]).unwrap();
        assert!((hi.clock_hz - 8e6).abs() < 1e-3);
        assert!((hi.watchdog_s - 600.0).abs() < 1e-9);
    }

    #[test]
    fn slight_overshoot_is_clamped() {
        let space = paper_design_space();
        let cfg = coded_to_config(&space, &[1.0 + 1e-12, -1.0 - 1e-12, 0.0]).unwrap();
        assert!(cfg.clock_hz <= 8e6);
        assert!(cfg.watchdog_s >= 60.0);
    }

    #[test]
    fn wrong_dimension_rejected() {
        let space = paper_design_space();
        assert!(coded_to_config(&space, &[0.0, 0.0]).is_err());
    }

    #[test]
    fn timer_space_appends_a_fourth_factor_without_touching_the_first_three() {
        let legacy = paper_design_space();
        let wide = paper_design_space_with_timer();
        assert_eq!(wide.dimension(), 4);
        for (a, b) in legacy.factors().iter().zip(wide.factors()) {
            assert_eq!(a.name(), b.name());
            assert_eq!((a.min(), a.max()), (b.min(), b.max()));
        }
        assert_eq!(wide.factors()[3].name(), TIMER_FACTOR);
        // The legacy fingerprint is a pure function of the 3-factor
        // space, so adding the optional factor cannot move it — and the
        // widened space can never share cache entries with it.
        assert_eq!(
            space_fingerprint(&legacy),
            space_fingerprint(&paper_design_space())
        );
        assert_ne!(space_fingerprint(&legacy), space_fingerprint(&wide));
    }

    #[test]
    fn timer_quantum_snaps_the_watchdog_onto_the_tick_grid() {
        let wide = paper_design_space_with_timer();
        // Centre of the space: watchdog 330 s, quantum 30.25 s.
        let cfg = coded_to_config(&wide, &[0.0, 0.0, 0.0, 0.0]).unwrap();
        let quantum = 0.5 * (TIMER_QUANTUM_RANGE.0 + TIMER_QUANTUM_RANGE.1);
        let ticks = (cfg.watchdog_s / quantum).round();
        assert!(
            (cfg.watchdog_s - ticks * quantum).abs() < 1e-9,
            "watchdog {} is not a multiple of the {quantum} s tick",
            cfg.watchdog_s
        );
        // The finest quantum leaves the legacy watchdog in place: a
        // 0.5 s tick divides the 330 s centre exactly.
        let fine = coded_to_config(&wide, &[0.0, 0.0, 0.0, -1.0]).unwrap();
        let legacy = coded_to_config(&paper_design_space(), &[0.0, 0.0, 0.0]).unwrap();
        assert_eq!(fine.watchdog_s, legacy.watchdog_s);
        assert_eq!(fine.clock_hz, legacy.clock_hz);
        assert_eq!(fine.tx_interval_s, legacy.tx_interval_s);
        // Snapping never leaves the validated watchdog range.
        let corner = coded_to_config(&wide, &[1.0, -1.0, 1.0, 1.0]).unwrap();
        assert!((60.0..=600.0).contains(&corner.watchdog_s));
    }

    #[test]
    fn four_factor_space_requires_the_timer_name() {
        let bogus = DesignSpace::new(vec![
            Factor::new("clock_hz", 125e3, 8e6).unwrap(),
            Factor::new("watchdog_s", 60.0, 600.0).unwrap(),
            Factor::new("tx_interval_s", 0.005, 10.0).unwrap(),
            Factor::new("mystery", 0.0, 1.0).unwrap(),
        ])
        .unwrap();
        assert!(coded_to_config(&bogus, &[0.0; 4]).is_err());
    }

    #[test]
    fn config_to_coded_pins_the_timer_coordinate_to_the_finest_tick() {
        let wide = paper_design_space_with_timer();
        let coded = config_to_coded(&wide, &NodeConfig::original()).unwrap();
        assert_eq!(coded.len(), 4);
        assert_eq!(coded[3], -1.0);
        let legacy = config_to_coded(&paper_design_space(), &NodeConfig::original()).unwrap();
        assert_eq!(&coded[..3], legacy.as_slice());
    }

    #[test]
    fn space_fingerprints_separate_bounds_and_names() {
        let base = space_fingerprint(&paper_design_space());
        assert_eq!(
            base,
            space_fingerprint(&paper_design_space()),
            "the fingerprint must be stable"
        );
        let shifted = DesignSpace::new(vec![
            Factor::new("clock_hz", 125e3, 4e6).unwrap(),
            Factor::new("watchdog_s", 60.0, 600.0).unwrap(),
            Factor::new("tx_interval_s", 0.005, 10.0).unwrap(),
        ])
        .unwrap();
        assert_ne!(base, space_fingerprint(&shifted), "bounds must matter");
        let renamed = DesignSpace::new(vec![
            Factor::new("clock_mhz", 125e3, 8e6).unwrap(),
            Factor::new("watchdog_s", 60.0, 600.0).unwrap(),
            Factor::new("tx_interval_s", 0.005, 10.0).unwrap(),
        ])
        .unwrap();
        assert_ne!(base, space_fingerprint(&renamed), "names must matter");
    }
}

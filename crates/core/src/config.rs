/// Tuning knobs of AdEle's online selection policy (paper Section III.C).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AdeleConfig {
    /// EWMA coefficient `a` of the cost update (Eq. 7). The paper found
    /// `a = 0.2` works well.
    pub ewma_alpha: f64,
    /// Exploration floor `ξ` (Eq. 9): even a maximally congested elevator
    /// is selected with probability at least `ξ` so its cost keeps
    /// updating. The paper uses `ξ = 0.05`.
    pub exploration: f64,
    /// Low-traffic threshold `θ`: when every elevator cost in the subset is
    /// below `θ`, AdEle switches to the minimal-path elevator to save
    /// energy. The paper finds `θ` empirically per configuration; 0.05 is
    /// our experimentally chosen default.
    pub low_traffic_threshold: f64,
    /// Enables the congestion-skipping policy (Eq. 8–9). Disabled, the
    /// selector degenerates to the paper's "AdEle-RR" ablation.
    pub skipping_enabled: bool,
    /// Enables the low-traffic minimal-path override.
    pub low_traffic_override: bool,
    /// Hysteresis on override re-entry: once a router leaves the
    /// minimal-path mode because a cost reached `θ`, it only re-enters when
    /// every cost drops below `θ × override_reentry_factor`. `1.0`
    /// reproduces the paper's plain threshold; values below 1 damp the
    /// override/round-robin oscillation near saturation (our
    /// implementation of the "threshold found experimentally per
    /// configuration" — the paper leaves dynamic threshold management to
    /// future work).
    pub override_reentry_factor: f64,
    /// Drive the low-traffic override from **measured** per-pillar energy
    /// telemetry (`ElevatorSelector::on_pillar_energy`) instead of the
    /// hop-count proxy of Section III.A. Off by default — the paper's
    /// policy, asserted bit-identical. When on, the selector asks the
    /// simulator for a push every 256 cycles
    /// (`ElevatorSelector::pillar_energy_period`), and the mode is inert
    /// until the first sample arrives.
    pub measured_energy_override: bool,
}

impl AdeleConfig {
    /// Paper defaults: `a = 0.2`, `ξ = 0.05`, skipping and override on.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            ewma_alpha: 0.2,
            exploration: 0.05,
            low_traffic_threshold: 0.05,
            skipping_enabled: true,
            low_traffic_override: true,
            override_reentry_factor: 0.25,
            measured_energy_override: false,
        }
    }

    /// Paper defaults plus the measured-energy override: the low-traffic
    /// energy decision reads per-pillar telemetry instead of hop counts.
    #[must_use]
    pub fn measured_energy() -> Self {
        Self {
            measured_energy_override: true,
            ..Self::paper_default()
        }
    }

    /// The "AdEle-RR" ablation of Fig. 4(d)/(h): plain round-robin over the
    /// offline subsets, no skipping, no override.
    #[must_use]
    pub fn rr_only() -> Self {
        Self {
            skipping_enabled: false,
            low_traffic_override: false,
            ..Self::paper_default()
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Names the first field out of range: `ewma_alpha` outside `[0, 1]`,
    /// `exploration` outside `[0, 1)`, a negative `low_traffic_threshold`
    /// or `override_reentry_factor` outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        let check = |field: &str, value: f64, ok: bool, range: &str| {
            if ok {
                Ok(())
            } else {
                Err(format!("{field} {value} outside {range}"))
            }
        };
        let (alpha, xi) = (self.ewma_alpha, self.exploration);
        check("ewma_alpha", alpha, (0.0..=1.0).contains(&alpha), "[0, 1]")?;
        check("exploration", xi, (0.0..1.0).contains(&xi), "[0, 1)")?;
        let theta = self.low_traffic_threshold;
        check("low_traffic_threshold", theta, theta >= 0.0, "[0, inf)")?;
        let reentry = self.override_reentry_factor;
        let ok = (0.0..=1.0).contains(&reentry);
        check("override_reentry_factor", reentry, ok, "[0, 1]")
    }
}

impl Default for AdeleConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = AdeleConfig::paper_default();
        assert_eq!(c.ewma_alpha, 0.2);
        assert_eq!(c.exploration, 0.05);
        assert!(c.skipping_enabled && c.low_traffic_override);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn rr_only_disables_adaptivity() {
        let c = AdeleConfig::rr_only();
        assert!(!c.skipping_enabled && !c.low_traffic_override);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn measured_energy_is_off_by_default() {
        assert!(!AdeleConfig::paper_default().measured_energy_override);
        assert!(!AdeleConfig::rr_only().measured_energy_override);
        let m = AdeleConfig::measured_energy();
        assert!(m.measured_energy_override && m.low_traffic_override);
        assert_eq!(m.validate(), Ok(()));
    }

    #[test]
    fn validate_names_the_field_out_of_range() {
        let paper = AdeleConfig::paper_default();
        for (bad, field) in [
            (
                AdeleConfig {
                    ewma_alpha: 1.5,
                    ..paper
                },
                "ewma_alpha",
            ),
            (
                AdeleConfig {
                    exploration: 1.0,
                    ..paper
                },
                "exploration",
            ),
            (
                AdeleConfig {
                    low_traffic_threshold: -0.1,
                    ..paper
                },
                "low_traffic_threshold",
            ),
            (
                AdeleConfig {
                    override_reentry_factor: f64::NAN,
                    ..paper
                },
                "override_reentry_factor",
            ),
        ] {
            let error = bad.validate().unwrap_err();
            assert!(error.starts_with(field), "{error}");
        }
    }
}

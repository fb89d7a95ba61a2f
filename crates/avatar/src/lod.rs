//! Avatar level-of-detail (LOD) models.
//!
//! The blueprint warns that sensed avatars "may be too complex to render with
//! WebGL and lightweight VR headsets" (§3.3). Each avatar therefore exists at
//! several fidelity levels, from a flat impostor to the full volumetric
//! capture, and renderers pick a level per avatar per frame (see
//! `metaclass-render`).

use serde::{Deserialize, Serialize};

/// Fidelity levels of an avatar model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LodLevel {
    /// A camera-facing textured quad.
    Impostor,
    /// A stylized low-poly body.
    Low,
    /// A game-quality rigged mesh with blendshapes.
    Medium,
    /// A photorealistic rigged mesh.
    High,
    /// The full volumetric capture from the classroom sensor rig —
    /// the "sophisticated avatar" of §3.3.
    Volumetric,
}

impl LodLevel {
    /// All levels, cheapest first.
    pub const ALL: [LodLevel; 5] =
        [LodLevel::Impostor, LodLevel::Low, LodLevel::Medium, LodLevel::High, LodLevel::Volumetric];

    /// Triangle count of the level's mesh.
    pub fn triangles(self) -> u64 {
        match self {
            LodLevel::Impostor => 2,
            LodLevel::Low => 1_500,
            LodLevel::Medium => 12_000,
            LodLevel::High => 80_000,
            LodLevel::Volumetric => 350_000,
        }
    }

    /// Resident texture bytes for the level.
    pub fn texture_bytes(self) -> u64 {
        match self {
            LodLevel::Impostor => 64 * 1024,
            LodLevel::Low => 512 * 1024,
            LodLevel::Medium => 2 * 1024 * 1024,
            LodLevel::High => 8 * 1024 * 1024,
            LodLevel::Volumetric => 32 * 1024 * 1024,
        }
    }

    /// The next cheaper level, or `None` at [`LodLevel::Impostor`].
    pub fn cheaper(self) -> Option<LodLevel> {
        let i = Self::ALL.iter().position(|&l| l == self).expect("level in ALL");
        i.checked_sub(1).map(|j| Self::ALL[j])
    }

    /// Picks a level from viewing distance (metres) and importance
    /// (`0.0` background attendee … `1.0` active speaker).
    ///
    /// Importance shifts the distance thresholds: a speaker keeps a high
    /// LOD across the whole classroom.
    pub fn for_distance(distance_m: f64, importance: f64) -> LodLevel {
        let imp = importance.clamp(0.0, 1.0);
        let d = distance_m.max(0.0) / (0.5 + 1.5 * imp);
        if d < 2.0 {
            LodLevel::Volumetric
        } else if d < 5.0 {
            LodLevel::High
        } else if d < 12.0 {
            LodLevel::Medium
        } else if d < 30.0 {
            LodLevel::Low
        } else {
            LodLevel::Impostor
        }
    }
}

impl std::fmt::Display for LodLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            LodLevel::Impostor => "impostor",
            LodLevel::Low => "low",
            LodLevel::Medium => "medium",
            LodLevel::High => "high",
            LodLevel::Volumetric => "volumetric",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_increase_with_fidelity() {
        for w in LodLevel::ALL.windows(2) {
            assert!(w[0].triangles() < w[1].triangles());
            assert!(w[0].texture_bytes() < w[1].texture_bytes());
        }
    }

    #[test]
    fn cheaper_walks_down_to_impostor() {
        assert_eq!(LodLevel::Volumetric.cheaper(), Some(LodLevel::High));
        assert_eq!(LodLevel::Impostor.cheaper(), None);
    }

    #[test]
    fn distance_selection_is_monotone() {
        let mut prev = LodLevel::Volumetric;
        for d in [0.5, 3.0, 8.0, 20.0, 50.0] {
            let l = LodLevel::for_distance(d, 0.0);
            assert!(l <= prev, "{d} m gave {l} after {prev}");
            prev = l;
        }
    }

    #[test]
    fn importance_raises_fidelity() {
        let spectator = LodLevel::for_distance(10.0, 0.0);
        let speaker = LodLevel::for_distance(10.0, 1.0);
        assert!(speaker > spectator);
    }

    #[test]
    fn negative_distance_is_clamped() {
        assert_eq!(LodLevel::for_distance(-3.0, 0.5), LodLevel::Volumetric);
    }
}

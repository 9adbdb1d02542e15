//! Chip placement: mapping logical cores onto physical chips.
//!
//! A TrueNorth chip hosts 4096 cores; multi-chip systems route spikes over
//! a slower, more power-hungry inter-chip interface. Placement therefore
//! matters: a deployment whose traffic stays on-chip is both faster and
//! cheaper. This module assigns cores to chips and arranges the chips on
//! a mesh whose per-hop transit the simulator prices.

use crate::error::{Result, TrueNorthError};
use crate::ids::CoreHandle;
use crate::power::CHIP_CORES;
use serde::{Deserialize, Serialize};

/// A core→chip assignment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// `chip_of[core index]` = chip number.
    chip_of: Vec<u32>,
    chips: u32,
}

impl Placement {
    /// Sequential placement: cores fill chips in registration order.
    pub fn sequential(core_count: usize) -> Self {
        Self::sequential_with_capacity(core_count, CHIP_CORES)
    }

    /// Sequential placement with an explicit per-chip capacity (useful
    /// for modelling partially reserved chips).
    ///
    /// # Panics
    ///
    /// Panics if `chip_capacity == 0`.
    pub fn sequential_with_capacity(core_count: usize, chip_capacity: usize) -> Self {
        assert!(chip_capacity > 0, "chip capacity must be positive");
        let chip_of: Vec<u32> = (0..core_count).map(|i| (i / chip_capacity) as u32).collect();
        let chips = chip_of.last().map_or(0, |&c| c + 1);
        Placement { chip_of, chips }
    }

    /// An explicit assignment.
    ///
    /// # Panics
    ///
    /// Panics if `chip_of` is empty.
    pub fn explicit(chip_of: Vec<u32>) -> Self {
        assert!(!chip_of.is_empty(), "placement needs at least one core");
        let chips = chip_of.iter().max().copied().unwrap_or(0) + 1;
        Placement { chip_of, chips }
    }

    /// Number of chips used.
    pub fn chip_count(&self) -> u32 {
        self.chips
    }

    /// Number of cores placed.
    pub fn core_count(&self) -> usize {
        self.chip_of.len()
    }

    /// The chip hosting a core.
    ///
    /// # Panics
    ///
    /// Panics if the handle is out of range.
    pub fn chip_of(&self, core: CoreHandle) -> u32 {
        self.chip_of[core.index()]
    }

    /// Cores on each chip.
    pub fn occupancy(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.chips as usize];
        for &c in &self.chip_of {
            counts[c as usize] += 1;
        }
        counts
    }
}

/// Physical grid position of a chip in a multi-chip mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ChipCoord {
    /// Column in the mesh.
    pub x: u32,
    /// Row in the mesh.
    pub y: u32,
}

impl ChipCoord {
    /// Manhattan (hop-count) distance to another chip.
    pub fn manhattan(self, other: ChipCoord) -> u32 {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }
}

/// One chip of a multi-chip system: its mesh position and the cores
/// placed on it. Produced by [`Mesh::chips`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chip {
    /// Chip number within the placement.
    pub id: u32,
    /// Physical mesh position.
    pub coord: ChipCoord,
    /// Core indices placed on this chip, ascending.
    pub cores: Vec<u32>,
}

/// A multi-chip system topology: a [`Placement`] of cores onto chips plus
/// the chips' physical mesh coordinates and the per-hop routing latency.
///
/// Spikes between cores on the same chip use the on-chip fabric (delays
/// 1..=15 ticks, exactly as in a single-chip system). A spike crossing
/// chips additionally pays `manhattan(src_chip, dst_chip) × hop_latency`
/// ticks of mesh transit on top of its programmed delay, modelling the
/// slower inter-chip interface. `hop_latency = 0` degenerates to an
/// ideal mesh, which must be (and is, see this crate's tests)
/// bit-identical to running without a mesh at all.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mesh {
    placement: Placement,
    /// `coords[chip]` — physical position of each chip.
    coords: Vec<ChipCoord>,
    hop_latency: u32,
}

impl Mesh {
    /// A 1×N line of chips: chip `c` sits at `(c, 0)`.
    pub fn line(placement: Placement, hop_latency: u32) -> Self {
        let coords = (0..placement.chip_count()).map(|c| ChipCoord { x: c, y: 0 }).collect();
        Mesh { placement, coords, hop_latency }
    }

    /// A row-major 2-D grid `width` chips wide: chip `c` sits at
    /// `(c % width, c / width)`.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn grid(placement: Placement, width: u32, hop_latency: u32) -> Self {
        assert!(width > 0, "mesh width must be positive");
        let coords =
            (0..placement.chip_count()).map(|c| ChipCoord { x: c % width, y: c / width }).collect();
        Mesh { placement, coords, hop_latency }
    }

    /// A mesh with explicit chip coordinates.
    ///
    /// # Errors
    ///
    /// [`TrueNorthError::InvalidMesh`] if `coords` does not provide exactly
    /// one coordinate per chip of the placement.
    pub fn with_coords(
        placement: Placement,
        coords: Vec<ChipCoord>,
        hop_latency: u32,
    ) -> Result<Self> {
        if coords.len() != placement.chip_count() as usize {
            return Err(TrueNorthError::InvalidMesh {
                reason: format!(
                    "{} chip coordinates for a placement of {} chips",
                    coords.len(),
                    placement.chip_count()
                ),
            });
        }
        Ok(Mesh { placement, coords, hop_latency })
    }

    /// The underlying core→chip placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Per-hop inter-chip latency in ticks.
    pub fn hop_latency(&self) -> u32 {
        self.hop_latency
    }

    /// The mesh position of a chip.
    ///
    /// # Panics
    ///
    /// Panics if `chip` is out of range.
    pub fn coord_of(&self, chip: u32) -> ChipCoord {
        self.coords[chip as usize]
    }

    /// Extra routing delay (in ticks) a spike from `src` core to `dst`
    /// core pays for mesh transit: zero when both cores share a chip.
    ///
    /// # Panics
    ///
    /// Panics if either core is outside the placement.
    #[inline]
    pub fn extra_delay(&self, src: u32, dst: u32) -> u32 {
        let sc = self.placement.chip_of(CoreHandle(src));
        let dc = self.placement.chip_of(CoreHandle(dst));
        if sc == dc {
            0
        } else {
            self.coords[sc as usize].manhattan(self.coords[dc as usize]) * self.hop_latency
        }
    }

    /// The worst-case extra delay any core pair can pay — the mesh
    /// diameter times the hop latency. Computed over chip pairs on
    /// demand; placements have at most a handful of chips.
    pub fn max_extra_delay(&self) -> u32 {
        let mut max = 0;
        for (i, &a) in self.coords.iter().enumerate() {
            for &b in &self.coords[i + 1..] {
                max = max.max(a.manhattan(b));
            }
        }
        max * self.hop_latency
    }

    /// Internal consistency check, applied when a mesh is restored from a
    /// snapshot.
    ///
    /// # Errors
    ///
    /// [`TrueNorthError::InvalidMesh`] if the coordinate table does not
    /// match the placement's chip count.
    pub fn validate(&self) -> Result<()> {
        if self.coords.len() != self.placement.chip_count() as usize {
            return Err(TrueNorthError::InvalidMesh {
                reason: format!(
                    "{} chip coordinates for a placement of {} chips",
                    self.coords.len(),
                    self.placement.chip_count()
                ),
            });
        }
        Ok(())
    }

    /// Per-chip summary: id, mesh position and resident cores.
    pub fn chips(&self) -> Vec<Chip> {
        let mut chips: Vec<Chip> = self
            .coords
            .iter()
            .enumerate()
            .map(|(id, &coord)| Chip { id: id as u32, coord, cores: Vec::new() })
            .collect();
        for idx in 0..self.placement.core_count() {
            let chip = self.placement.chip_of(CoreHandle(idx as u32));
            chips[chip as usize].cores.push(idx as u32);
        }
        chips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_fills_chips_in_order() {
        let p = Placement::sequential_with_capacity(10, 4);
        assert_eq!(p.chip_count(), 3);
        assert_eq!(p.occupancy(), vec![4, 4, 2]);
        assert_eq!(p.chip_of(CoreHandle::from_index(0)), 0);
        assert_eq!(p.chip_of(CoreHandle::from_index(9)), 2);
    }

    #[test]
    fn full_chip_capacity_is_4096() {
        let p = Placement::sequential(4096);
        assert_eq!(p.chip_count(), 1);
        let p = Placement::sequential(4097);
        assert_eq!(p.chip_count(), 2);
    }

    #[test]
    fn explicit_placement_roundtrip() {
        let p = Placement::explicit(vec![2, 0, 1, 2]);
        assert_eq!(p.chip_count(), 3);
        assert_eq!(p.occupancy(), vec![1, 1, 2]);
    }

    #[test]
    fn line_mesh_pays_per_hop() {
        // Chips 0,1,2 at x = 0,1,2; cores 2 per chip; hop latency 3.
        let mesh = Mesh::line(Placement::sequential_with_capacity(6, 2), 3);
        assert_eq!(mesh.extra_delay(0, 1), 0, "same chip");
        assert_eq!(mesh.extra_delay(0, 2), 3, "one hop");
        assert_eq!(mesh.extra_delay(1, 5), 6, "two hops");
        assert_eq!(mesh.max_extra_delay(), 6);
    }

    #[test]
    fn grid_mesh_uses_manhattan_distance() {
        // 2x2 grid: chips at (0,0) (1,0) (0,1) (1,1), one core each.
        let mesh = Mesh::grid(Placement::sequential_with_capacity(4, 1), 2, 2);
        assert_eq!(mesh.coord_of(3), ChipCoord { x: 1, y: 1 });
        assert_eq!(mesh.extra_delay(0, 3), 4, "two hops x latency 2");
        assert_eq!(mesh.extra_delay(1, 2), 4);
        assert_eq!(mesh.extra_delay(1, 3), 2);
        assert_eq!(mesh.max_extra_delay(), 4);
    }

    #[test]
    fn explicit_coords_validated() {
        let p = Placement::sequential_with_capacity(4, 2); // 2 chips
        assert!(matches!(
            Mesh::with_coords(p.clone(), vec![ChipCoord { x: 0, y: 0 }], 1),
            Err(TrueNorthError::InvalidMesh { .. })
        ));
        let mesh =
            Mesh::with_coords(p, vec![ChipCoord { x: 0, y: 0 }, ChipCoord { x: 5, y: 0 }], 1)
                .unwrap();
        assert_eq!(mesh.extra_delay(0, 3), 5);
        assert!(mesh.validate().is_ok());
    }

    #[test]
    fn chips_summary_groups_cores() {
        let mesh = Mesh::line(Placement::explicit(vec![1, 0, 1]), 1);
        let chips = mesh.chips();
        assert_eq!(chips.len(), 2);
        assert_eq!(chips[0].cores, vec![1]);
        assert_eq!(chips[1].cores, vec![0, 2]);
        assert_eq!(chips[1].coord, ChipCoord { x: 1, y: 0 });
    }

    #[test]
    fn zero_hop_latency_is_free() {
        let mesh = Mesh::line(Placement::sequential_with_capacity(4, 1), 0);
        assert_eq!(mesh.extra_delay(0, 3), 0);
        assert_eq!(mesh.max_extra_delay(), 0);
    }
}

//! Exporters: per-link CSV rows and layer/pillar heatmap JSON.
//!
//! Reports are plain serialisable structs built from a [`LinkLedger`] +
//! [`LinkMap`] snapshot, so experiment harnesses can dump them under
//! `results/`, diff them across runs, or feed them to plotting scripts.

use crate::ledger::LinkLedger;
use crate::link::LinkMap;
use crate::model::EnergyModel;
use serde::Serialize;
use std::io::Write as _;
use std::path::Path;

/// One per-link row of a [`LinkEnergyReport`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LinkEnergyRow {
    /// Dense link id (canonical enumeration order).
    pub link: u32,
    /// Driving router coordinate, `x,y,z`.
    pub src: (u8, u8, u8),
    /// Receiving router coordinate.
    pub dst: (u8, u8, u8),
    /// Output direction at the driving router (`"east"`, `"up"`, …).
    pub dir: String,
    /// `true` for TSV links.
    pub vertical: bool,
    /// Flits per virtual channel.
    pub flits_per_vc: Vec<u64>,
    /// Pure traversal energy (flits × per-hop energy), nanojoules.
    pub traversal_nj: f64,
    /// Traversal energy plus the downstream FIFO/crossbar energy this
    /// link's traffic caused, nanojoules.
    pub attributed_nj: f64,
}

/// A per-link energy report for one measurement window.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LinkEnergyReport {
    /// Rows in canonical link order.
    pub rows: Vec<LinkEnergyRow>,
    /// Measured cycles behind the snapshot.
    pub cycles: u64,
}

impl LinkEnergyReport {
    /// Snapshots `ledger` into per-link rows.
    #[must_use]
    pub fn from_ledger(map: &LinkMap, ledger: &LinkLedger, model: &EnergyModel) -> Self {
        let rows = map
            .links()
            .map(|(id, info)| {
                let s = map.coord(info.src);
                let d = map.coord(info.dst);
                LinkEnergyRow {
                    link: id.0,
                    src: (s.x, s.y, s.z),
                    dst: (d.x, d.y, d.z),
                    dir: info.dir.to_string(),
                    vertical: map.is_vertical(id),
                    flits_per_vc: (0..ledger.vcs())
                        .map(|v| ledger.link_flits(map, id, v))
                        .collect(),
                    traversal_nj: ledger.link_traversal_nj(map, model, id),
                    attributed_nj: ledger.link_attributed_nj(map, model, id),
                }
            })
            .collect();
        Self {
            rows,
            cycles: ledger.cycles(),
        }
    }

    /// The `n` rows with the highest attributed energy, descending (ties
    /// broken by link id, so the order is deterministic).
    #[must_use]
    pub fn hottest(&self, n: usize) -> Vec<&LinkEnergyRow> {
        let mut refs: Vec<&LinkEnergyRow> = self.rows.iter().collect();
        refs.sort_by(|a, b| {
            b.attributed_nj
                .total_cmp(&a.attributed_nj)
                .then(a.link.cmp(&b.link))
        });
        refs.truncate(n);
        refs
    }

    /// Serialises the rows as CSV (header + one line per link).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("link,src,dst,dir,vertical,flits_per_vc,traversal_nj,attributed_nj\n");
        for r in &self.rows {
            let flits = r
                .flits_per_vc
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(";");
            out.push_str(&format!(
                "{},{}-{}-{},{}-{}-{},{},{},{},{:.3},{:.3}\n",
                r.link,
                r.src.0,
                r.src.1,
                r.src.2,
                r.dst.0,
                r.dst.1,
                r.dst.2,
                r.dir,
                r.vertical,
                flits,
                r.traversal_nj,
                r.attributed_nj
            ));
        }
        out
    }

    /// Writes the CSV to `path` (creating parent directories).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_csv().as_bytes())
    }
}

/// Layer/pillar heatmap: the hierarchical roll-ups in export form.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HeatmapReport {
    /// Total energy (nJ) per mesh layer, index = `z`.
    pub layer_energy_nj: Vec<f64>,
    /// Total energy (nJ) of each pillar's routers (summed over layers).
    pub pillar_energy_nj: Vec<f64>,
    /// TSV traversals per pillar.
    pub pillar_tsv_flits: Vec<u64>,
    /// TSV traversal energy (nJ) per pillar.
    pub pillar_tsv_energy_nj: Vec<f64>,
    /// Measured cycles behind the snapshot.
    pub cycles: u64,
}

impl HeatmapReport {
    /// Snapshots the layer/pillar roll-ups of `ledger`.
    #[must_use]
    pub fn from_ledger(map: &LinkMap, ledger: &LinkLedger, model: &EnergyModel) -> Self {
        let pillar_tsv_flits = ledger.pillar_tsv_flits(map);
        let pillar_tsv_energy_nj = pillar_tsv_flits
            .iter()
            .map(|&f| f as f64 * model.link_vertical_nj)
            .collect();
        Self {
            layer_energy_nj: ledger
                .layer_ledgers(map)
                .iter()
                .map(|l| l.total_nj(model))
                .collect(),
            pillar_energy_nj: ledger
                .pillar_ledgers(map)
                .iter()
                .map(|l| l.total_nj(model))
                .collect(),
            pillar_tsv_flits,
            pillar_tsv_energy_nj,
            cycles: ledger.cycles(),
        }
    }

    /// Writes the heatmap as pretty JSON to `path` (creating parents).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(path, json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::{Coord, Direction, ElevatorSet, Mesh3d, NodeId};

    fn fixture() -> (Mesh3d, LinkMap, LinkLedger) {
        let mesh = Mesh3d::new(3, 3, 2).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(1, 1)]).unwrap();
        let map = LinkMap::new(&mesh, &elevators);
        let mut ledger = LinkLedger::new(&map, 2);
        ledger.open(&vec![0; map.node_count() * Direction::COUNT * 2]);
        (mesh, map, ledger)
    }

    /// Books `flits` flits over `link` on VC 0: the writes of the FIFO it
    /// feeds, which holds them all at the settle (no reads).
    fn send(ledger: &mut LinkLedger, map: &LinkMap, link: crate::LinkId, flits: u64) {
        let info = map.link(link);
        let fifo = ledger.fifo(info.dst.index(), info.dir.opposite().index(), 0);
        ledger.add_writes(fifo, flits);
        let mut lens = vec![0; map.node_count() * Direction::COUNT * 2];
        for (f, len) in lens.iter_mut().enumerate() {
            let (node, port, vc) = (f / (Direction::COUNT * 2), f / 2 % Direction::COUNT, f % 2);
            let port = Direction::ALL[port];
            *len = ledger.buffer_writes(NodeId(node as u16), port, vc) as u8;
        }
        ledger.settle(&lens);
    }

    #[test]
    fn report_covers_every_link_in_order() {
        let (_, map, ledger) = fixture();
        let model = EnergyModel::default_45nm();
        let report = LinkEnergyReport::from_ledger(&map, &ledger, &model);
        assert_eq!(report.rows.len(), map.link_count());
        for (i, row) in report.rows.iter().enumerate() {
            assert_eq!(row.link as usize, i);
            assert_eq!(row.flits_per_vc.len(), 2);
        }
    }

    #[test]
    fn hottest_sorts_by_attributed_energy() {
        let (mesh, map, mut ledger) = fixture();
        let model = EnergyModel::default_45nm();
        let a = map
            .out_link(mesh.node_id(Coord::new(0, 0, 0)).unwrap(), Direction::East)
            .unwrap();
        let b = map
            .out_link(mesh.node_id(Coord::new(1, 1, 0)).unwrap(), Direction::Up)
            .unwrap();
        send(&mut ledger, &map, a, 5);
        send(&mut ledger, &map, b, 1);
        let report = LinkEnergyReport::from_ledger(&map, &ledger, &model);
        let hot = report.hottest(2);
        assert_eq!(hot[0].link, a.0);
        assert!(hot[0].attributed_nj > hot[1].attributed_nj);
        assert_eq!(hot.len(), 2);
    }

    #[test]
    fn csv_has_header_and_one_row_per_link() {
        let (_, map, ledger) = fixture();
        let model = EnergyModel::default_45nm();
        let csv = LinkEnergyReport::from_ledger(&map, &ledger, &model).to_csv();
        assert_eq!(csv.lines().count(), 1 + map.link_count());
        assert!(csv.starts_with("link,src,dst,dir,vertical"));
    }

    #[test]
    fn heatmap_reflects_tsv_traffic() {
        let (mesh, map, mut ledger) = fixture();
        let model = EnergyModel::default_45nm();
        let up = map
            .out_link(mesh.node_id(Coord::new(1, 1, 0)).unwrap(), Direction::Up)
            .unwrap();
        send(&mut ledger, &map, up, 1);
        let heat = HeatmapReport::from_ledger(&map, &ledger, &model);
        assert_eq!(heat.layer_energy_nj.len(), 2);
        assert_eq!(heat.pillar_tsv_flits, vec![1]);
        assert!((heat.pillar_tsv_energy_nj[0] - model.link_vertical_nj).abs() < 1e-12);
        // The driving router sits on layer 0: its hop energy lands there,
        // the write it causes on layer 1.
        assert!((heat.layer_energy_nj[0] - model.link_vertical_nj).abs() < 1e-12);
        assert!((heat.layer_energy_nj[1] - model.buffer_write_nj).abs() < 1e-12);
    }
}

//! Compressed in-GPU-DRAM activation storage — the Section IX extension.
//!
//! "To reduce GPU DRAM bandwidth and memory capacity requirements, the
//! compression engine inside the GPU's memory controllers could compress
//! and store the activation maps inside the GPU's DRAM. Implementing this
//! optimization involves developing efficient memory addressing schemes
//! that allow the memory controller to retrieve the data in its original,
//! uncompressed form."
//!
//! This module implements the straightforward such scheme: each 128-byte
//! logical line compresses (ZVC) into 0–4 data sectors of 32 bytes, plus
//! one 8-byte line-table entry holding the ZVC mask and the line's sector
//! base. The line table is the indirection the memory controller walks on a
//! read; random line access therefore costs one table read plus
//! `popcount(mask)` sector reads — quantified by
//! [`CompressedDramStore::line_read_sectors`].

use cdma_compress::{Compressor, Zvc, ZVC_WINDOW_ELEMS};

/// Data-sector granularity (one DRAM burst).
pub const SECTOR_BYTES: usize = 32;
/// Logical line granularity (one ZVC window of 32 words).
pub const LINE_BYTES: usize = ZVC_WINDOW_ELEMS * 4;
/// Line-table entry size: 4-byte mask + 4-byte sector base.
const TABLE_ENTRY_BYTES: usize = 8;

/// Per-line metadata the memory controller reads before the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LineMeta {
    mask: u32,
    /// Index of the line's first data sector.
    sector_base: u32,
}

/// An activation buffer stored compressed in GPU DRAM.
#[derive(Debug, Clone)]
pub struct CompressedDramStore {
    table: Vec<LineMeta>,
    sectors: Vec<[u8; SECTOR_BYTES]>,
    element_count: usize,
}

/// Capacity accounting for a compressed store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreStats {
    /// Uncompressed logical bytes.
    pub logical_bytes: u64,
    /// Data-sector bytes actually occupied.
    pub data_bytes: u64,
    /// Line-table bytes.
    pub table_bytes: u64,
}

impl StoreStats {
    /// Physical bytes (data + table).
    fn physical_bytes(&self) -> u64 {
        self.data_bytes + self.table_bytes
    }

    /// Capacity saving as a fraction of the logical size.
    pub fn savings(&self) -> f64 {
        1.0 - self.physical_bytes() as f64 / self.logical_bytes as f64
    }
}

impl CompressedDramStore {
    /// Compresses and stores an activation buffer.
    pub fn store(data: &[f32]) -> Self {
        let mut table = Vec::with_capacity(data.len().div_ceil(ZVC_WINDOW_ELEMS));
        let mut sectors: Vec<[u8; SECTOR_BYTES]> = Vec::new();
        let mut zvc = Vec::with_capacity(4 + LINE_BYTES);
        for line in data.chunks(ZVC_WINDOW_ELEMS) {
            // One line is one ZVC window: its mask, then its payload.
            Zvc::new().compress_into(line, &mut zvc);
            let (mask, payload) = zvc.split_at(4);
            let mask = u32::from_le_bytes(mask.try_into().expect("a 4-byte mask"));
            let sector_base = sectors.len() as u32;
            for chunk in payload.chunks(SECTOR_BYTES) {
                let mut s = [0u8; SECTOR_BYTES];
                s[..chunk.len()].copy_from_slice(chunk);
                sectors.push(s);
            }
            table.push(LineMeta { mask, sector_base });
        }
        CompressedDramStore {
            table,
            sectors,
            element_count: data.len(),
        }
    }

    /// Total stored elements.
    pub fn element_count(&self) -> usize {
        self.element_count
    }

    /// Capacity accounting.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            logical_bytes: (self.element_count * 4) as u64,
            data_bytes: (self.sectors.len() * SECTOR_BYTES) as u64,
            table_bytes: (self.table.len() * TABLE_ENTRY_BYTES) as u64,
        }
    }

    /// DRAM sectors touched by a random read of line `index` (the
    /// read-amplification metric): one table sector plus the data sectors
    /// the mask says exist.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn line_read_sectors(&self, index: usize) -> usize {
        let meta = self.table[index];
        let payload_bytes = meta.mask.count_ones() as usize * 4;
        1 + payload_bytes.div_ceil(SECTOR_BYTES)
    }

    /// Reads back one logical line in uncompressed form.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    fn load_line(&self, index: usize) -> Vec<f32> {
        let meta = self.table[index];
        let words_in_line = if index + 1 == self.table.len() {
            let rem = self.element_count % ZVC_WINDOW_ELEMS;
            if rem == 0 {
                ZVC_WINDOW_ELEMS
            } else {
                rem
            }
        } else {
            ZVC_WINDOW_ELEMS
        };
        let payload_bytes = meta.mask.count_ones() as usize * 4;
        let base = meta.sector_base as usize;
        let sectors = &self.sectors[base..base + payload_bytes.div_ceil(SECTOR_BYTES)];
        let mut zvc = Vec::with_capacity(4 + payload_bytes);
        zvc.extend_from_slice(&meta.mask.to_le_bytes());
        zvc.extend_from_slice(&sectors.as_flattened()[..payload_bytes]);
        Zvc::new()
            .decompress(&zvc, words_in_line)
            .expect("a stored line is a well-formed ZVC window")
    }

    /// Reads the whole buffer back (the prefetch path).
    pub fn load(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.element_count);
        for i in 0..self.table.len() {
            out.extend(self.load_line(i));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse(n: usize, density_pct: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                if (i * 2654435761) % 100 < density_pct {
                    (i % 89) as f32 + 0.5
                } else {
                    0.0
                }
            })
            .collect()
    }

    #[test]
    fn roundtrip_exact() {
        for (n, d) in [(32, 50), (1000, 30), (4096, 0), (4096, 100), (33, 40)] {
            let data = sparse(n, d);
            let store = CompressedDramStore::store(&data);
            assert_eq!(store.load(), data, "n={n} d={d}");
            assert_eq!(store.element_count(), n);
        }
    }

    #[test]
    fn random_line_access_is_correct() {
        let data = sparse(4096, 35);
        let store = CompressedDramStore::store(&data);
        for line in [0usize, 7, 63, 127] {
            let expect = &data[line * 32..(line + 1) * 32];
            assert_eq!(store.load_line(line), expect, "line {line}");
        }
    }

    #[test]
    fn capacity_savings_track_density() {
        let sparse_store = CompressedDramStore::store(&sparse(64 * 1024, 20));
        let dense_store = CompressedDramStore::store(&sparse(64 * 1024, 100));
        // ~20% density: data sectors ~ 1/4 of logical (sector rounding),
        // table adds 6.25%; savings well over half.
        assert!(
            sparse_store.stats().savings() > 0.5,
            "sparse savings {}",
            sparse_store.stats().savings()
        );
        // Fully dense data costs table overhead: negative savings.
        assert!(dense_store.stats().savings() < 0.0);
        assert!(dense_store.stats().savings() > -0.08);
    }

    #[test]
    fn all_zero_lines_cost_only_the_table() {
        let store = CompressedDramStore::store(&vec![0.0f32; 32 * 100]);
        let s = store.stats();
        assert_eq!(s.data_bytes, 0);
        assert_eq!(s.table_bytes, 100 * 8);
        assert!((s.savings() - (1.0 - 800.0 / 12800.0)).abs() < 1e-12);
    }

    #[test]
    fn read_amplification_model() {
        let data = sparse(32 * 4, 100);
        let store = CompressedDramStore::store(&data);
        // Dense line: 1 table sector + 4 data sectors.
        assert_eq!(store.line_read_sectors(0), 5);
        let store = CompressedDramStore::store(&[0.0f32; 32]);
        // Zero line: table only.
        assert_eq!(store.line_read_sectors(0), 1);
    }

    #[test]
    fn partial_tail_line_roundtrips() {
        let data = sparse(40, 60); // 1 full line + 8-word tail
        let store = CompressedDramStore::store(&data);
        assert_eq!(store.table.len(), 2);
        assert_eq!(store.load(), data);
        assert_eq!(store.load_line(1), &data[32..]);
    }

    #[test]
    fn sector_packing_is_tight() {
        // 9 non-zero words = 36 bytes -> 2 sectors (not 4).
        let mut data = vec![0.0f32; 32];
        for v in data.iter_mut().take(9) {
            *v = 1.0;
        }
        let store = CompressedDramStore::store(&data);
        assert_eq!(store.stats().data_bytes, 2 * SECTOR_BYTES as u64);
    }
}

//! Cycle-stepped functional simulation of the ZVC engine datapath (Fig. 10).
//!
//! [`ZvcEngine`](crate::ZvcEngine) gives closed-form cycle counts; this
//! module actually *executes* the microarchitecture one cycle at a time:
//!
//! * **compressor** (Fig. 10a): stage 1 runs the eight parallel zero
//!   comparators and the prefix sum; stage 2 the bubble-collapsing shifter;
//!   stage 3 the shift-and-append into the 128-byte window with its
//!   buffer-length register and mask accumulation.
//! * **decompressor** (Fig. 10b): stage 1 pop-counts the 8-bit mask segment
//!   and derives the mux selects; stage 2 the bubble-expanding shifter that
//!   reconstitutes one 32-byte sector per cycle.
//!
//! The simulated datapaths are verified against the architectural codec
//! ([`cdma_compress::Zvc`]) byte-for-byte, and their cycle counts against
//! the closed forms — the pipeline *is* the specification, just slower.
//! Nothing outside these tests runs it, so it is compiled only under
//! test: the oracle for `ZvcEngine`'s cycle counts.

use cdma_compress::{Compressor, Zvc};

/// Activation words per 32-byte sector (the per-cycle datapath width).
pub const WORDS_PER_SECTOR: usize = 8;
/// Sectors per 128-byte compression line.
pub const SECTORS_PER_LINE: usize = 4;

/// Stage-1 output: the raw words, their zero mask, and the prefix sums that
/// drive the stage-2 mux selects.
#[derive(Debug, Clone, Copy)]
struct Stage1 {
    words: [u32; WORDS_PER_SECTOR],
    mask: u8,
    /// prefix[i] = number of non-zero words strictly before word i.
    prefix: [u8; WORDS_PER_SECTOR],
}

/// Stage-2 output: the compacted non-zero words.
#[derive(Debug, Clone, Copy)]
struct Stage2 {
    compacted: [u32; WORDS_PER_SECTOR],
    count: u8,
    mask: u8,
}

/// Cycle-stepped ZVC compression pipeline.
///
/// Feed one 32-byte sector per [`ZvcCompressPipeline::tick`]; completed
/// 128-byte-line encodings appear in the output stream. `flush` drains the
/// pipeline and the partially-filled line assembly.
#[derive(Debug, Default)]
pub struct ZvcCompressPipeline {
    stage1: Option<Stage1>,
    stage2: Option<Stage2>,
    // Stage-3 line-assembly state: the "compressed 128B buffer", its
    // buffer-length register, and the accumulated mask.
    line_payload: Vec<u32>,
    line_mask: u32,
    line_sectors: u8,
    output: Vec<u8>,
    cycles: u64,
    /// Total sectors accepted (for partial-line flush bookkeeping).
    sectors_in: u64,
}

impl ZvcCompressPipeline {
    /// Creates an idle pipeline.
    pub fn new() -> Self {
        ZvcCompressPipeline::default()
    }

    /// Compressed bytes emitted so far.
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// Advances one clock: optionally accepts a new input sector while the
    /// older sectors move down the pipeline.
    pub fn tick(&mut self, input: Option<[f32; WORDS_PER_SECTOR]>) {
        self.cycles += 1;
        // Stage 3: append the stage-2 result to the line assembly.
        if let Some(s2) = self.stage2.take() {
            for w in &s2.compacted[..s2.count as usize] {
                self.line_payload.push(*w);
            }
            self.line_mask |= (s2.mask as u32) << (8 * self.line_sectors);
            self.line_sectors += 1;
            if self.line_sectors as usize == SECTORS_PER_LINE {
                self.emit_line();
            }
        }
        // Stage 2: bubble-collapsing shifter.
        if let Some(s1) = self.stage1.take() {
            let mut compacted = [0u32; WORDS_PER_SECTOR];
            let mut count = 0u8;
            for i in 0..WORDS_PER_SECTOR {
                if s1.mask & (1 << i) != 0 {
                    // The mux select for slot prefix[i] picks word i.
                    compacted[s1.prefix[i] as usize] = s1.words[i];
                    count += 1;
                }
            }
            self.stage2 = Some(Stage2 {
                compacted,
                count,
                mask: s1.mask,
            });
        }
        // Stage 1: parallel zero compare + prefix sum. The mask is the
        // codec's own [`cdma_compress::sector_mask`] — the model and the
        // SIMD kernels share one definition of the hardware's eight
        // simultaneous comparators — and the prefix sums drop out of the
        // mask as popcounts of the bits below each lane.
        if let Some(words_f) = input {
            let mut words = [0u32; WORDS_PER_SECTOR];
            for (w, v) in words.iter_mut().zip(&words_f) {
                *w = v.to_bits();
            }
            let mask = cdma_compress::sector_mask(&words_f);
            let mut prefix = [0u8; WORDS_PER_SECTOR];
            for (i, p) in prefix.iter_mut().enumerate() {
                *p = (mask & ((1u8 << i) - 1)).count_ones() as u8;
            }
            self.stage1 = Some(Stage1 {
                words,
                mask,
                prefix,
            });
            self.sectors_in += 1;
        }
    }

    fn emit_line(&mut self) {
        self.output.extend_from_slice(&self.line_mask.to_le_bytes());
        for w in &self.line_payload {
            self.output.extend_from_slice(&w.to_le_bytes());
        }
        self.line_payload.clear();
        self.line_mask = 0;
        self.line_sectors = 0;
    }

    /// Drains the pipeline (two idle ticks) and emits any partial line.
    pub fn flush(&mut self) {
        while self.stage1.is_some() || self.stage2.is_some() {
            self.tick(None);
        }
        if self.line_sectors > 0 {
            self.emit_line();
        }
    }

    /// Convenience: streams a whole activation buffer through the pipeline
    /// one sector per cycle, returning `(compressed bytes, cycles)`.
    ///
    /// # Panics
    ///
    /// Panics unless `data.len()` is a multiple of 8 (whole sectors; the
    /// hardware datapath is sector-granular).
    pub fn run(data: &[f32]) -> (Vec<u8>, u64) {
        assert!(
            data.len().is_multiple_of(WORDS_PER_SECTOR),
            "pipeline input must be whole 8-word sectors, got {} words",
            data.len()
        );
        let mut pipe = ZvcCompressPipeline::new();
        for sector in data.chunks_exact(WORDS_PER_SECTOR) {
            let mut s = [0f32; WORDS_PER_SECTOR];
            s.copy_from_slice(sector);
            pipe.tick(Some(s));
        }
        pipe.flush();
        (pipe.output, pipe.cycles)
    }
}

/// Cycle-stepped ZVC decompression pipeline (Fig. 10b).
///
/// Works line-at-a-time: given one compressed 128-byte-line record (mask +
/// packed payload), reconstructs the four 32-byte sectors, one per cycle,
/// plus the paper's two extra latency cycles for select generation.
#[derive(Debug, Default)]
pub struct ZvcDecompressPipeline {
    output: Vec<f32>,
    cycles: u64,
}

impl ZvcDecompressPipeline {
    /// Creates an idle pipeline.
    pub fn new() -> Self {
        ZvcDecompressPipeline::default()
    }

    /// Processes one compressed line record covering `words` logical words
    /// (≤ 32). Returns the byte length consumed from `record`.
    ///
    /// # Panics
    ///
    /// Panics if the record is shorter than its mask demands.
    pub fn process_line(&mut self, record: &[u8], words: usize) -> usize {
        assert!(words <= 32, "a line covers at most 32 words");
        assert!(record.len() >= 4, "record must hold a 4-byte mask");
        let mask = u32::from_le_bytes([record[0], record[1], record[2], record[3]]);
        let mut pos = 4usize;
        // Two latency cycles: mask segment fetch + select generation.
        self.cycles += 2;
        let mut produced = 0usize;
        for seg in 0..SECTORS_PER_LINE {
            if produced >= words {
                break;
            }
            // One sector reconstituted per cycle.
            self.cycles += 1;
            let seg_mask = ((mask >> (8 * seg)) & 0xff) as u8;
            let in_this = (words - produced).min(WORDS_PER_SECTOR);
            for i in 0..in_this {
                if seg_mask & (1 << i) != 0 {
                    assert!(pos + 4 <= record.len(), "record truncated");
                    let w = u32::from_le_bytes([
                        record[pos],
                        record[pos + 1],
                        record[pos + 2],
                        record[pos + 3],
                    ]);
                    self.output.push(f32::from_bits(w));
                    pos += 4;
                } else {
                    self.output.push(0.0);
                }
            }
            produced += in_this;
        }
        pos
    }

    /// Streams a whole ZVC-compressed buffer (as produced by
    /// [`ZvcCompressPipeline::run`] or [`Zvc`]) back into words.
    pub fn run(bytes: &[u8], element_count: usize) -> (Vec<f32>, u64) {
        let mut pipe = ZvcDecompressPipeline::new();
        let mut pos = 0usize;
        let mut remaining = element_count;
        while remaining > 0 {
            let words = remaining.min(32);
            pos += pipe.process_line(&bytes[pos..], words);
            remaining -= words;
        }
        (pipe.output, pipe.cycles)
    }
}

/// Reference check used by tests and debug assertions: the pipeline output
/// must be byte-identical to the architectural codec.
pub fn pipeline_matches_codec(data: &[f32]) -> bool {
    if !data.len().is_multiple_of(WORDS_PER_SECTOR) {
        return false;
    }
    let (bytes, _) = ZvcCompressPipeline::run(data);
    bytes == Zvc::new().compress(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize, zero_mod: usize) -> Vec<f32> {
        (0..len)
            .map(|i| {
                if i % zero_mod == 0 {
                    0.0
                } else {
                    (i % 251) as f32 + 0.25
                }
            })
            .collect()
    }

    #[test]
    fn compress_pipeline_matches_codec_bytes() {
        for (len, zero_mod) in [(32, 2), (64, 3), (128, 1000), (4096, 4), (320, 7)] {
            let data = sample(len, zero_mod);
            let (bytes, _) = ZvcCompressPipeline::run(&data);
            assert_eq!(
                bytes,
                Zvc::new().compress(&data),
                "len {len} zero_mod {zero_mod}"
            );
        }
    }

    #[test]
    fn all_zero_and_all_dense_extremes() {
        let zeros = vec![0.0f32; 128];
        let (b, _) = ZvcCompressPipeline::run(&zeros);
        assert_eq!(b.len(), 16); // 4 lines x 4-byte mask
        let dense = vec![1.0f32; 128];
        let (b, _) = ZvcCompressPipeline::run(&dense);
        assert_eq!(b.len(), 16 + 128 * 4);
    }

    #[test]
    fn compress_cycle_count_matches_closed_form() {
        // n sectors through a 3-stage pipeline: last result retires at
        // cycle 3 + (n - 1); flush adds exactly the drain cycles.
        for sectors in [1usize, 4, 32, 100] {
            let data = sample(sectors * WORDS_PER_SECTOR, 3);
            let (_, cycles) = ZvcCompressPipeline::run(&data);
            assert_eq!(cycles, 3 + sectors as u64 - 1, "sectors {sectors}");
        }
    }

    #[test]
    fn decompress_pipeline_inverts_compressor() {
        for (len, zero_mod) in [(32, 2), (256, 5), (4096, 3)] {
            let data = sample(len, zero_mod);
            let (bytes, _) = ZvcCompressPipeline::run(&data);
            let (back, _) = ZvcDecompressPipeline::run(&bytes, len);
            assert_eq!(back.len(), data.len());
            for (a, b) in back.iter().zip(&data) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn decompress_cycles_match_paper_model() {
        // One 128-byte line: 4 streaming cycles + 2 latency cycles.
        let data = sample(32, 3);
        let (bytes, _) = ZvcCompressPipeline::run(&data);
        let (_, cycles) = ZvcDecompressPipeline::run(&bytes, 32);
        assert_eq!(cycles, 6);
    }

    #[test]
    fn reference_check_helper() {
        assert!(pipeline_matches_codec(&sample(512, 3)));
        assert!(!pipeline_matches_codec(&sample(7, 2))); // not sector-aligned
    }

    #[test]
    fn interleaved_bubbles_do_not_corrupt_output() {
        // Stall the input stream (None ticks) mid-line; the pipeline must
        // still assemble correct lines.
        let data = sample(64, 3);
        let mut pipe = ZvcCompressPipeline::new();
        for (i, sector) in data.chunks_exact(WORDS_PER_SECTOR).enumerate() {
            let mut s = [0f32; WORDS_PER_SECTOR];
            s.copy_from_slice(sector);
            pipe.tick(Some(s));
            if i % 2 == 0 {
                pipe.tick(None); // bubble
            }
        }
        pipe.flush();
        assert_eq!(pipe.output(), Zvc::new().compress(&data).as_slice());
    }

    #[test]
    #[should_panic(expected = "whole 8-word sectors")]
    fn non_sector_input_rejected() {
        let _ = ZvcCompressPipeline::run(&[1.0; 5]);
    }
}

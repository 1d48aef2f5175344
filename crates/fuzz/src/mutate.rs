//! Byte-level input mutation, libFuzzer-style.

use polar_rng::rngs::StdRng;
use polar_rng::{RngExt, SeedableRng};

/// Values that historically trigger edge cases (libFuzzer/AFL's
/// "interesting" constants).
const INTERESTING: [u64; 12] =
    [0, 1, 2, 0x7f, 0x80, 0xff, 0x100, 0x7fff, 0x8000, 0xffff, 0x7fff_ffff, 0xffff_ffff];

/// A deterministic (seeded) mutation engine.
#[derive(Debug)]
pub struct Mutator {
    rng: StdRng,
    max_len: usize,
}

impl Mutator {
    /// Create a mutator with a seed and a maximum input length.
    pub fn new(seed: u64, max_len: usize) -> Self {
        Mutator { rng: StdRng::seed_from_u64(seed), max_len: max_len.max(1) }
    }

    /// Access to the engine's RNG (for scheduling decisions).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Mutate `input` in place with 1–4 stacked random operations,
    /// optionally splicing from `other`.
    pub fn mutate(&mut self, input: &mut Vec<u8>, other: Option<&[u8]>) {
        let rounds = self.rng.random_range(1..=4);
        for _ in 0..rounds {
            self.mutate_once(input, other);
        }
        input.truncate(self.max_len);
        if input.is_empty() {
            input.push(self.rng.random());
        }
    }

    fn mutate_once(&mut self, input: &mut Vec<u8>, other: Option<&[u8]>) {
        if input.is_empty() {
            input.push(self.rng.random());
            return;
        }
        match self.rng.random_range(0..9u32) {
            0 => {
                // Bit flip.
                let i = self.rng.random_range(0..input.len());
                let bit = self.rng.random_range(0..8u32);
                input[i] ^= 1 << bit;
            }
            1 => {
                // Random byte overwrite.
                let i = self.rng.random_range(0..input.len());
                input[i] = self.rng.random();
            }
            2 => {
                // Interesting value, 1/2/4 bytes little-endian.
                let v = INTERESTING[self.rng.random_range(0..INTERESTING.len())];
                let width = [1usize, 2, 4][self.rng.random_range(0..3usize)];
                let i = self.rng.random_range(0..input.len());
                for (k, byte) in v.to_le_bytes().iter().take(width).enumerate() {
                    if i + k < input.len() {
                        input[i + k] = *byte;
                    }
                }
            }
            3 => {
                // Add/subtract a small delta.
                let i = self.rng.random_range(0..input.len());
                let delta = self.rng.random_range(1..=16u8);
                if self.rng.random_bool(0.5) {
                    input[i] = input[i].wrapping_add(delta);
                } else {
                    input[i] = input[i].wrapping_sub(delta);
                }
            }
            4 => {
                // Delete a byte.
                if input.len() > 1 {
                    let i = self.rng.random_range(0..input.len());
                    input.remove(i);
                }
            }
            5 => {
                // Insert a random byte.
                if input.len() < self.max_len {
                    let i = self.rng.random_range(0..=input.len());
                    input.insert(i, self.rng.random());
                }
            }
            6 => {
                // Duplicate a chunk.
                if input.len() < self.max_len {
                    let start = self.rng.random_range(0..input.len());
                    let len = self
                        .rng
                        .random_range(1..=(input.len() - start).clamp(1, 8));
                    let chunk: Vec<u8> = input[start..start + len].to_vec();
                    let at = self.rng.random_range(0..=input.len());
                    for (k, b) in chunk.into_iter().enumerate() {
                        input.insert(at + k, b);
                    }
                }
            }
            7 => {
                // Splice with another corpus entry.
                if let Some(other) = other.filter(|o| !o.is_empty()) {
                    let cut_a = self.rng.random_range(0..=input.len());
                    let cut_b = self.rng.random_range(0..other.len());
                    input.truncate(cut_a);
                    input.extend_from_slice(&other[cut_b..]);
                } else {
                    let i = self.rng.random_range(0..input.len());
                    input[i] = self.rng.random();
                }
            }
            _ => {
                // Overwrite a run with one value (memset-like).
                let i = self.rng.random_range(0..input.len());
                let len = self.rng.random_range(1..=(input.len() - i).clamp(1, 16));
                let v = self.rng.random();
                for b in &mut input[i..i + len] {
                    *b = v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutation_changes_inputs_eventually() {
        let mut m = Mutator::new(1, 64);
        let original = vec![0u8; 8];
        let mut changed = 0;
        for _ in 0..50 {
            let mut input = original.clone();
            m.mutate(&mut input, None);
            if input != original {
                changed += 1;
            }
        }
        assert!(changed > 40, "mutator is too timid: {changed}/50");
    }

    #[test]
    fn mutation_respects_max_len_and_nonempty() {
        let mut m = Mutator::new(2, 16);
        let mut input = vec![1u8; 16];
        for _ in 0..500 {
            m.mutate(&mut input, Some(&[9u8; 12]));
            assert!(!input.is_empty());
            assert!(input.len() <= 16, "len {}", input.len());
        }
    }

    #[test]
    fn empty_input_grows() {
        let mut m = Mutator::new(3, 8);
        let mut input = Vec::new();
        m.mutate(&mut input, None);
        assert!(!input.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut m = Mutator::new(seed, 32);
            let mut input = b"seed-input".to_vec();
            for _ in 0..10 {
                m.mutate(&mut input, None);
            }
            input
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}

//! Bit-granular readers and writers over `u64` word buffers.
//!
//! The packed configuration store ([`crate::store`]) keeps every register as a
//! contiguous run of bits inside a shared word buffer. [`BitWriter`] and [`BitReader`]
//! are the only primitives that touch those bits: a writer appends (or overwrites)
//! fields of up to 64 bits at an absolute bit cursor, a reader consumes them in the
//! same order. Both are branch-light two-word read-modify-write loops — no per-field
//! allocation, no byte alignment, no padding.

/// Writes bit fields into a `u64` word buffer at an absolute bit cursor, growing the
/// buffer on demand. Writing **clears the target bits first**, so a writer can rewrite
/// an existing slot in place without zeroing it separately.
#[derive(Debug)]
pub struct BitWriter<'a> {
    words: &'a mut Vec<u64>,
    pos: u64,
}

impl<'a> BitWriter<'a> {
    /// A writer positioned at absolute bit offset `pos` of `words`.
    pub fn new(words: &'a mut Vec<u64>, pos: u64) -> Self {
        BitWriter { words, pos }
    }

    /// The current absolute bit position.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Writes the low `width` bits of `value` and advances the cursor.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or if `value` has bits set above `width` (the codec layer
    /// is responsible for choosing widths that fit).
    pub fn write(&mut self, value: u64, width: usize) {
        debug_assert!(width <= 64, "bit fields are at most one word");
        debug_assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        if width == 0 {
            return;
        }
        let end_word = (self.pos + width as u64).div_ceil(64) as usize;
        if self.words.len() < end_word {
            self.words.resize(end_word, 0);
        }
        let word = (self.pos / 64) as usize;
        let bit = (self.pos % 64) as usize;
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        self.words[word] = (self.words[word] & !(mask << bit)) | (value << bit);
        let spilled = bit + width;
        if spilled > 64 {
            let high_bits = spilled - 64;
            let high = value >> (width - high_bits);
            let high_mask = (1u64 << high_bits) - 1;
            self.words[word + 1] = (self.words[word + 1] & !high_mask) | high;
        }
        self.pos += width as u64;
    }
}

/// Reads bit fields from a `u64` word buffer at an absolute bit cursor, in the order a
/// [`BitWriter`] produced them.
#[derive(Clone, Debug)]
pub struct BitReader<'a> {
    words: &'a [u64],
    pos: u64,
    start: u64,
}

impl<'a> BitReader<'a> {
    /// A reader positioned at absolute bit offset `pos` of `words`.
    pub fn new(words: &'a [u64], pos: u64) -> Self {
        BitReader {
            words,
            pos,
            start: pos,
        }
    }

    /// The number of bits consumed since construction (what the round-trip property
    /// tests compare against `Codec::encoded_bits`).
    pub fn bits_read(&self) -> u64 {
        self.pos - self.start
    }

    /// Bits left between the cursor and the end of the buffer (zero once past it). A
    /// decoder bounds a length it reads from the stream by this before allocating.
    pub fn remaining_bits(&self) -> u64 {
        (self.words.len() as u64 * 64).saturating_sub(self.pos)
    }

    /// Reads a `width`-bit field and advances the cursor. Bits past the end of the
    /// buffer read as zero, so a stream that ends early decodes to some value instead
    /// of panicking; callers that parse untrusted streams compare [`bits_read`]
    /// against the declared length.
    ///
    /// [`bits_read`]: BitReader::bits_read
    ///
    /// # Panics
    ///
    /// Panics (debug only) if `width > 64`.
    pub fn read(&mut self, width: usize) -> u64 {
        debug_assert!(width <= 64, "bit fields are at most one word");
        if width == 0 {
            return 0;
        }
        let word = (self.pos / 64) as usize;
        let bit = (self.pos % 64) as usize;
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let mut value = (self.word(word) >> bit) & mask;
        let spilled = bit + width;
        if spilled > 64 {
            let high_bits = spilled - 64;
            let low_bits = width - high_bits;
            let high = self.word(word + 1) & ((1u64 << high_bits) - 1);
            value |= high << low_bits;
        }
        self.pos += width as u64;
        value
    }

    #[inline]
    fn word(&self, i: usize) -> u64 {
        self.words.get(i).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_word_fields_round_trip() {
        let mut words = Vec::new();
        let mut w = BitWriter::new(&mut words, 0);
        w.write(0b101, 3);
        w.write(0, 1);
        w.write(0xffff, 16);
        w.write(42, 7);
        let mut r = BitReader::new(&words, 0);
        assert_eq!(r.read(3), 0b101);
        assert_eq!(r.read(1), 0);
        assert_eq!(r.read(16), 0xffff);
        assert_eq!(r.read(7), 42);
        assert_eq!(r.bits_read(), 27);
    }

    #[test]
    fn fields_spanning_word_boundaries_round_trip() {
        let mut words = Vec::new();
        let mut w = BitWriter::new(&mut words, 60);
        w.write(0b1_0110_1011, 9); // straddles words 0 and 1
        w.write(u64::MAX, 64); // straddles words 1 and 2
        let mut r = BitReader::new(&words, 60);
        assert_eq!(r.read(9), 0b1_0110_1011);
        assert_eq!(r.read(64), u64::MAX);
    }

    #[test]
    fn rewriting_a_slot_clears_the_old_bits() {
        let mut words = vec![u64::MAX; 2];
        let mut w = BitWriter::new(&mut words, 10);
        w.write(0, 40);
        let mut r = BitReader::new(&words, 10);
        assert_eq!(r.read(40), 0);
        // The surrounding bits are untouched.
        let mut r = BitReader::new(&words, 0);
        assert_eq!(r.read(10), (1 << 10) - 1);
        let mut r = BitReader::new(&words, 50);
        assert_eq!(r.read(14), (1 << 14) - 1);
    }

    #[test]
    fn zero_width_fields_are_free() {
        let mut words = Vec::new();
        let mut w = BitWriter::new(&mut words, 0);
        w.write(0, 0);
        assert_eq!(w.position(), 0);
        assert!(words.is_empty());
        let mut r = BitReader::new(&words, 0);
        assert_eq!(r.read(0), 0);
        assert_eq!(r.bits_read(), 0);
    }

    #[test]
    fn reads_past_the_end_are_zero_and_counted() {
        let words = [u64::MAX];
        let mut r = BitReader::new(&words, 60);
        assert_eq!(r.remaining_bits(), 4);
        assert_eq!(r.read(8), 0xf, "the in-buffer low bits, zeros above");
        assert_eq!(r.read(64), 0);
        assert_eq!(r.bits_read(), 72);
        assert_eq!(r.remaining_bits(), 0);
    }
}

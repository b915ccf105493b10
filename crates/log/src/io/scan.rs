//! Byte-level helpers of the text and CSV decoders: a quote-aware split
//! that looks at eight bytes per step, a trim that handles ASCII edges
//! bytewise, and decimal parsing straight from digit bytes.
//!
//! Each helper answers exactly what its plain counterpart answers (the
//! byte-at-a-time splitter kept as the test oracle, [`str::trim`],
//! [`str::parse`]); the fast path only covers the common case and hands
//! everything else to the counterpart.

/// `0x01` in every byte.
const LO: u64 = 0x0101_0101_0101_0101;
/// `0x80` in every byte.
const HI: u64 = 0x8080_8080_8080_8080;

/// The eight bytes of `bytes` from `at` as a little-endian word, the
/// last one to seven padded with zero bytes; `None` past the end.
#[inline(always)]
fn word_at(bytes: &[u8], at: usize) -> Option<u64> {
    let rest = bytes.get(at..).filter(|rest| !rest.is_empty())?;
    Some(match rest.first_chunk::<8>() {
        Some(chunk) => u64::from_le_bytes(*chunk),
        None => (rest.iter().enumerate()).fold(0, |word, (i, &b)| word | u64::from(b) << (8 * i)),
    })
}

/// The high bit of each byte of `word` that equals one of the needles,
/// each given as `needle * LO` (none of them zero, so padding never
/// matches), and possibly of a few bytes above such a byte: where a byte
/// matches, the subtraction's borrow can also mark the next byte if that
/// one is the needle plus 1. The lowest set bit is therefore always a
/// match, and a higher one is checked against its byte.
#[inline(always)]
fn candidates<const N: usize>(word: u64, needles: [u64; N]) -> u64 {
    needles.iter().fold(0, |hits, &n| {
        let x = word ^ n;
        hits | (x.wrapping_sub(LO) & !x)
    }) & HI
}

/// The high bit of exactly the bytes of `word` that equal `needle`:
/// `(b & 0x7f) + 0x7f` cannot carry out of its byte.
#[inline]
fn matches(word: u64, needle: u8) -> u64 {
    let x = word ^ (LO * u64::from(needle));
    !(((x & !HI) + !HI) | x | !HI)
}

/// The position of the first byte of `bytes[from..]` that is one of
/// `needles`, or `None` (also when `from` is past the end), testing
/// eight bytes per step.
#[inline]
pub(crate) fn find_any<const N: usize>(
    bytes: &[u8],
    from: usize,
    needles: [u8; N],
) -> Option<usize> {
    let needles = needles.map(|n| LO * u64::from(n));
    let mut at = from;
    loop {
        let hits = candidates(word_at(bytes, at)?, needles);
        if hits != 0 {
            return Some(at + (hits.trailing_zeros() / 8) as usize);
        }
        at += 8;
    }
}

/// How many bytes of `bytes` equal `needle` (not zero), counted eight
/// at a time.
pub(crate) fn count(bytes: &[u8], needle: u8) -> usize {
    let mut words = bytes.chunks_exact(8);
    let mut n = 0;
    for chunk in &mut words {
        let mut word = [0; 8];
        word.copy_from_slice(chunk);
        // One bit per matching byte, moved to the bytes' low bits; the
        // product sums the eight bytes into the top one.
        let hits = matches(u64::from_le_bytes(word), needle) >> 7;
        n += (hits.wrapping_mul(LO) >> 56) as usize;
    }
    n + words.remainder().iter().filter(|&&b| b == needle).count()
}

/// The separators of `s` that lie outside double quotes, as `(offset,
/// byte)` in order. Inside quotes a backslash escapes the byte after it.
/// Each word of eight bytes is tested against the separators, `"` and
/// `\` at once, and only its candidates are visited one by one, so a
/// byte that is none of them costs an eighth of one word's test.
pub(crate) struct Separators<'a> {
    bytes: &'a [u8],
    seps: [u8; 2],
    /// Whether `\n` ends a line.
    lines: bool,
    /// The separators, `"`, `\`, and `\n` if lines are split too (else
    /// the first separator again), each in every byte of a word.
    needles: [u64; 5],
    /// The offset of the word `hits` came from.
    at: usize,
    /// The word's candidates not yet visited, one high bit per byte.
    hits: u64,
    in_quotes: bool,
    /// Matches before this offset are escaped.
    skip_to: usize,
}

impl<'a> Separators<'a> {
    /// The scan of `s` for `seps` (ASCII, neither `"` nor `\`; a single
    /// separator is given twice).
    pub(crate) fn new(s: &'a str, seps: [u8; 2]) -> Self {
        Self::with_lines(s, seps, false)
    }

    /// [`new`](Self::new), where `\n` also ends a line: it is reported
    /// wherever it is, ends any quote, and is never escaped, as if each
    /// line were scanned on its own.
    pub(crate) fn lines(s: &'a str, seps: [u8; 2]) -> Self {
        Self::with_lines(s, seps, true)
    }

    fn with_lines(s: &'a str, seps: [u8; 2], lines: bool) -> Self {
        debug_assert!(seps
            .iter()
            .all(|b| b.is_ascii() && !b"\0\"\\\n".contains(b)));
        let bytes = s.as_bytes();
        let line_end = if lines { b'\n' } else { seps[0] };
        let needles = [seps[0], seps[1], b'"', b'\\', line_end].map(|n| LO * u64::from(n));
        let hits = word_at(bytes, 0).map_or(0, |word| candidates(word, needles));
        Separators {
            bytes,
            seps,
            lines,
            needles,
            at: 0,
            hits,
            in_quotes: false,
            skip_to: 0,
        }
    }
}

impl Iterator for Separators<'_> {
    type Item = (usize, u8);

    // Always inlined into the caller's loop, where the needles and the
    // cursor stay in registers: as a call, each separator reloaded them,
    // and the text scan took ~20% longer.
    #[inline(always)]
    fn next(&mut self) -> Option<(usize, u8)> {
        loop {
            while self.hits == 0 {
                self.at += 8;
                self.hits = candidates(word_at(self.bytes, self.at)?, self.needles);
            }
            let at = self.at + (self.hits.trailing_zeros() / 8) as usize;
            self.hits &= self.hits - 1;
            let Some(&b) = self.bytes.get(at) else {
                continue;
            };
            if !self.in_quotes {
                if self.seps.contains(&b) || (b == b'\n' && self.lines) {
                    return Some((at, b));
                }
                // A backslash outside quotes is data.
                self.in_quotes = b == b'"';
            } else if b == b'\n' && self.lines {
                // An escape skips one byte, so it can reach no further
                // than this line break, which it cannot hide.
                self.in_quotes = false;
                return Some((at, b));
            } else if at >= self.skip_to {
                // A multi-byte character's bytes are never ASCII, so an
                // escape that skips into one cannot hide a match.
                match b {
                    b'"' => self.in_quotes = false,
                    b'\\' => self.skip_to = at + 2,
                    _ => {}
                }
            }
        }
    }
}

/// Splits `s` on the ASCII byte `sep`, ignoring separators inside
/// double-quoted values (with backslash escapes). The pieces borrow from
/// `s`; nothing is unescaped and nothing is allocated.
pub(crate) fn split_quoted(s: &str, sep: u8) -> SplitQuoted<'_> {
    SplitQuoted {
        s,
        seps: Separators::new(s, [sep; 2]),
        start: Some(0),
    }
}

/// The iterator of [`split_quoted`].
pub(crate) struct SplitQuoted<'a> {
    s: &'a str,
    seps: Separators<'a>,
    /// Where the next piece starts; `None` once the last piece is out.
    start: Option<usize>,
}

impl<'a> Iterator for SplitQuoted<'a> {
    type Item = &'a str;

    #[inline]
    fn next(&mut self) -> Option<&'a str> {
        let start = self.start?;
        // A separator is ASCII, hence a character boundary.
        Some(match self.seps.next() {
            Some((at, _)) => {
                self.start = Some(at + 1);
                &self.s[start..at]
            }
            None => {
                self.start = None;
                &self.s[start..]
            }
        })
    }
}

/// Whether `b` is an ASCII character that [`char::is_whitespace`]
/// accepts: tab, line feed, vertical tab (U+000B, which
/// [`u8::is_ascii_whitespace`] leaves out), form feed, carriage return
/// and space.
#[inline]
fn is_ascii_space(b: u8) -> bool {
    (b == b' ') | (b.wrapping_sub(b'\t') < 5)
}

/// [`str::trim`]: ASCII whitespace is stripped byte by byte, and an edge
/// that reaches a non-ASCII byte is left to [`str::trim`], which knows
/// the Unicode whitespace. Always inlined: the decoders trim every field
/// and entry, and as a call it also kept `parse_head` out of line.
#[inline(always)]
pub(crate) fn trim(s: &str) -> &str {
    let bytes = s.as_bytes();
    let (mut start, mut end) = (0, bytes.len());
    while start < end && is_ascii_space(bytes[start]) {
        start += 1;
    }
    while end > start && is_ascii_space(bytes[end - 1]) {
        end -= 1;
    }
    if start < end && (bytes[start] | bytes[end - 1]) >= 0x80 {
        return s[start..end].trim();
    }
    // Only ASCII bytes were stripped, so both ends are boundaries.
    &s[start..end]
}

/// The value of `text` if it is 1 to `max` ASCII digits, read directly.
#[inline]
fn digits(text: &str, max: usize) -> Option<u64> {
    let bytes = text.as_bytes();
    if bytes.is_empty() || bytes.len() > max {
        return None;
    }
    bytes.iter().try_fold(0u64, |n, &b| {
        let d = b.wrapping_sub(b'0');
        (d < 10).then(|| n * 10 + u64::from(d))
    })
}

/// [`str::parse::<u64>`]: up to 19 digits (which cannot overflow) are
/// read directly; anything else (a sign, 20 or more digits, a stray
/// byte) goes to [`str::parse`].
#[inline]
pub(crate) fn parse_u64(text: &str) -> Option<u64> {
    digits(text, 19).or_else(|| text.parse().ok())
}

/// [`str::parse::<u32>`]: up to 9 digits are read directly; anything
/// else goes to [`str::parse`].
#[inline]
pub(crate) fn parse_u32(text: &str) -> Option<u32> {
    match digits(text, 9) {
        Some(n) => u32::try_from(n).ok(),
        None => text.parse().ok(),
    }
}

/// The byte-at-a-time splitter that the word-at-a-time scan replaced,
/// kept as the oracle of the differential tests.
#[cfg(test)]
struct BytewiseSplit<'a> {
    /// The unsplit tail; `None` once the last piece is out.
    rest: Option<&'a str>,
    sep: u8,
}

#[cfg(test)]
impl<'a> Iterator for BytewiseSplit<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let s = self.rest?;
        let bytes = s.as_bytes();
        let (mut i, mut in_quotes) = (0, false);
        while i < bytes.len() {
            match bytes[i] {
                b'\\' if in_quotes => i += 1,
                b'"' => in_quotes = !in_quotes,
                b if b == self.sep && !in_quotes => {
                    self.rest = Some(&s[i + 1..]);
                    return Some(&s[..i]);
                }
                _ => {}
            }
            i += 1;
        }
        self.rest = None;
        Some(s)
    }
}

/// The pieces of `s` split on `sep` by the oracle.
#[cfg(test)]
pub(crate) fn bytewise_split(s: &str, sep: u8) -> Vec<&str> {
    BytewiseSplit { rest: Some(s), sep }.collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Strings over separators, quotes, backslashes, ASCII and Unicode
    /// whitespace, and multi-byte letters.
    fn scan_text() -> impl Strategy<Value = String> {
        let chars = prop::sample::select(vec![
            '|', ',', ';', '"', '\\', '=', ' ', '\u{a0}', '\u{3000}', 'é', '\u{b}', '\t', 'a', '7',
        ]);
        prop::collection::vec(chars, 0..40).prop_map(|cs| cs.into_iter().collect())
    }

    proptest! {
        #[test]
        fn split_matches_the_bytewise_oracle(s in scan_text()) {
            for sep in [b'|', b',', b';'] {
                let fast: Vec<&str> = split_quoted(&s, sep).collect();
                prop_assert_eq!(fast, bytewise_split(&s, sep), "sep {}", sep as char);
            }
        }

        #[test]
        fn two_separators_match_the_nested_oracle(s in scan_text()) {
            // Scanning for `|` and `,` at once finds the `,`-pieces of
            // each `|`-piece, each ended by the byte the oracle split on.
            let mut expected = Vec::new();
            let fields = bytewise_split(&s, b'|');
            for (f, field) in fields.iter().enumerate() {
                let entries = bytewise_split(field, b',');
                for (e, entry) in entries.iter().enumerate() {
                    let end = if e + 1 < entries.len() {
                        Some(b',')
                    } else if f + 1 < fields.len() {
                        Some(b'|')
                    } else {
                        None
                    };
                    expected.push((*entry, end));
                }
            }
            let mut start = 0;
            let mut found = Vec::new();
            for (at, sep) in Separators::new(&s, [b'|', b',']) {
                found.push((&s[start..at], Some(sep)));
                start = at + 1;
            }
            found.push((&s[start..], None));
            prop_assert_eq!(found, expected);
        }

        #[test]
        fn trim_matches_str_trim(s in scan_text()) {
            prop_assert_eq!(trim(&s), s.trim());
        }

        #[test]
        fn numbers_match_str_parse(s in "[+-]{0,1}[0-9]{0,25}") {
            prop_assert_eq!(parse_u64(&s), s.parse::<u64>().ok());
            prop_assert_eq!(parse_u32(&s), s.parse::<u32>().ok());
        }
    }

    #[test]
    fn count_matches_a_bytewise_count() {
        let text = "a\nb\n\n\u{3000}\n|\n\n\n\n\n\n\n\nx";
        for end in 0..=text.len() {
            let bytes = &text.as_bytes()[..end];
            let newlines = bytes.iter().filter(|&&b| b == b'\n').count();
            assert_eq!(count(bytes, b'\n'), newlines, "{end}");
        }
    }

    #[test]
    fn find_any_reports_the_first_needle() {
        let text = b"abcdefgh|ijklmnop,qrs";
        assert_eq!(find_any(text, 0, [b'|', b',']), Some(8));
        assert_eq!(find_any(text, 9, [b'|', b',']), Some(17));
        assert_eq!(find_any(text, 18, [b'|', b',']), None);
        assert_eq!(find_any(text, 99, [b'|']), None);
        // Bytes just above and below a needle, and 0x80, never match.
        assert_eq!(find_any(b"{}{}\x80\xfc{}|", 0, [b'|']), Some(8));
        // A candidate above a match may be a needle plus one (`}` after
        // `|`); `matches` is exact wherever the other bytes are.
        let word = u64::from_le_bytes(*b"|\x00|}\x7c\xfc||");
        assert_eq!(
            candidates(word, [LO * u64::from(b'|')]),
            0x8080_0080_8080_0080
        );
        assert_eq!(matches(word, b'|'), 0x8080_0080_0080_0080);
        assert_eq!(matches(word, b'}'), 0x0000_0000_8000_0000);
    }

    #[test]
    fn trim_equals_str_trim_on_every_edge() {
        for core in ["", "a", "a b", "é", "\u{3000}x\u{3000}", "-"] {
            for pad in [
                "", " ", "\t", "\u{b}", "\u{c}", "\r\n", "\u{a0}", "\u{3000}", " \u{85} ", "\u{1c}",
            ] {
                for s in [
                    format!("{pad}{core}"),
                    format!("{core}{pad}"),
                    format!("{pad}{core}{pad}"),
                ] {
                    assert_eq!(trim(&s), s.trim(), "{s:?}");
                }
            }
        }
    }

    #[test]
    fn numbers_equal_str_parse_on_edge_cases() {
        let mut cases: Vec<String> = ["+7", "007", "-1", "", "0", "1_0", "9999999999999999999"]
            .map(String::from)
            .into();
        cases.extend([
            u64::MAX.to_string(),
            (u128::from(u64::MAX) + 1).to_string(),
            "1".repeat(25),
            u32::MAX.to_string(),
            (u64::from(u32::MAX) + 1).to_string(),
        ]);
        for case in cases {
            for pad in ["", " ", "\u{a0}", "\u{3000}", "\u{b}"] {
                let padded = format!("{pad}{case}{pad}");
                for s in [case.as_str(), padded.as_str(), trim(&padded)] {
                    assert_eq!(parse_u64(s), s.parse::<u64>().ok(), "{s:?}");
                    assert_eq!(parse_u32(s), s.parse::<u32>().ok(), "{s:?}");
                }
            }
        }
    }
}

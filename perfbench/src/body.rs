//! Document bodies: every URL's body is a window into one fixed
//! pseudo-random pattern, starting at an offset derived from the URL.
//! The origin sends it without building it, and the client checks it
//! without storing it.

use std::sync::OnceLock;

/// Pattern length: odd, so windows of different URLs rarely align.
const PATTERN_LEN: usize = (1 << 20) + 7;

fn pattern() -> &'static [u8] {
    static PATTERN: OnceLock<Vec<u8>> = OnceLock::new();
    PATTERN.get_or_init(|| {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..PATTERN_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    })
}

/// FNV-1a of the URL, reduced to a pattern offset.
fn offset(url: &str) -> usize {
    let h = url.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    (h % PATTERN_LEN as u64) as usize
}

/// Call `f` on consecutive slices that together form `url`'s body of
/// `size` bytes.
pub fn for_each_chunk<E>(
    url: &str,
    size: u64,
    mut f: impl FnMut(&[u8]) -> Result<(), E>,
) -> Result<(), E> {
    let p = pattern();
    let mut pos = offset(url);
    let mut left = size;
    while left > 0 {
        let n = (PATTERN_LEN - pos).min(usize::try_from(left).unwrap_or(usize::MAX));
        f(&p[pos..pos + n])?;
        left -= n as u64;
        pos = (pos + n) % PATTERN_LEN;
    }
    Ok(())
}

/// Incremental check of received bytes against `url`'s body.
#[derive(Debug, Clone)]
pub struct BodyCheck {
    pos: usize,
    matched: bool,
}

impl BodyCheck {
    pub fn new(url: &str) -> BodyCheck {
        BodyCheck {
            pos: offset(url),
            matched: true,
        }
    }

    /// Compare the next received bytes.
    pub fn feed(&mut self, mut bytes: &[u8]) {
        let p = pattern();
        while !bytes.is_empty() && self.matched {
            let n = (PATTERN_LEN - self.pos).min(bytes.len());
            self.matched = bytes[..n] == p[self.pos..self.pos + n];
            bytes = &bytes[n..];
            self.pos = (self.pos + n) % PATTERN_LEN;
        }
    }

    /// True when every byte fed so far matched.
    pub fn matched(&self) -> bool {
        self.matched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `url`'s whole body as one buffer.
    fn to_vec(url: &str, size: u64) -> Vec<u8> {
        let mut out = Vec::new();
        let _ = for_each_chunk::<()>(url, size, |c| {
            out.extend_from_slice(c);
            Ok(())
        });
        out
    }

    #[test]
    fn chunks_wrap_the_pattern_and_check_incrementally() {
        let url = "http://p0.server1.x.edu/big.html";
        let size = 3 * PATTERN_LEN as u64 + 11;
        let body = to_vec(url, size);
        assert_eq!(body.len() as u64, size);
        let mut check = BodyCheck::new(url);
        for piece in body.chunks(4093) {
            check.feed(piece);
        }
        assert!(check.matched());
        let mut other = BodyCheck::new("http://p0.server1.x.edu/other.html");
        other.feed(&body[..64]);
        assert!(!other.matched());
    }
}

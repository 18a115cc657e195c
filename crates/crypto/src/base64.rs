//! Standard base64 (RFC 4648, with `=` padding), implemented from scratch.
//!
//! X-TNL credentials carry the issuer signature "encoded in base64" in the
//! `<signature>` element (paper §6.2, Example 1); this module provides that
//! encoding.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Errors from [`decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input length is not a multiple of four.
    BadLength(usize),
    /// A byte outside the alphabet (and not padding) was found.
    BadByte {
        /// Offset of the offending byte.
        index: usize,
        /// The offending byte value.
        byte: u8,
    },
    /// Padding appeared somewhere other than the final one or two positions.
    BadPadding,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadLength(n) => write!(f, "base64 length {n} is not a multiple of 4"),
            Self::BadByte { index, byte } => {
                write!(f, "invalid base64 byte 0x{byte:02x} at offset {index}")
            }
            Self::BadPadding => write!(f, "misplaced base64 padding"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encode `data` as base64 with padding.
pub fn encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    std::fmt::Write::write_fmt(&mut out, format_args!("{}", Base64(data)))
        .expect("formatting into a String");
    out
}

/// `data` as padded base64, formatted in place (an X-TNL document writes
/// a signature this way without an intermediate string):
/// `Base64(data).to_string() == encode(data)`.
pub struct Base64<'a>(pub &'a [u8]);

impl std::fmt::Display for Base64<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Up to four characters from the top `len` sextets of `n`.
        let mut put = |n: u32, len: usize| {
            let mut quad = *b"====";
            for (i, c) in quad.iter_mut().take(len).enumerate() {
                *c = ALPHABET[(n >> (18 - 6 * i)) as usize & 0x3f];
            }
            f.write_str(std::str::from_utf8(&quad).expect("the alphabet is ASCII"))
        };
        let mut chunks = self.0.chunks_exact(3);
        for c in &mut chunks {
            put(
                (u32::from(c[0]) << 16) | (u32::from(c[1]) << 8) | u32::from(c[2]),
                4,
            )?;
        }
        match chunks.remainder() {
            [] => Ok(()),
            [a] => put(u32::from(*a) << 16, 2),
            [a, b] => put((u32::from(*a) << 16) | (u32::from(*b) << 8), 3),
            _ => unreachable!("chunks_exact(3) remainder is < 3"),
        }
    }
}

fn value_of(byte: u8) -> Option<u8> {
    match byte {
        b'A'..=b'Z' => Some(byte - b'A'),
        b'a'..=b'z' => Some(byte - b'a' + 26),
        b'0'..=b'9' => Some(byte - b'0' + 52),
        b'+' => Some(62),
        b'/' => Some(63),
        _ => None,
    }
}

/// Decode padded base64.
pub fn decode(text: &str) -> Result<Vec<u8>, DecodeError> {
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err(DecodeError::BadLength(bytes.len()));
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for (group_idx, group) in bytes.chunks_exact(4).enumerate() {
        let is_last = (group_idx + 1) * 4 == bytes.len();
        let pad = group.iter().filter(|&&b| b == b'=').count();
        if pad > 0 && (!is_last || pad > 2 || group[..4 - pad].contains(&b'=')) {
            return Err(DecodeError::BadPadding);
        }
        let mut n: u32 = 0;
        for (i, &b) in group[..4 - pad].iter().enumerate() {
            let v = value_of(b).ok_or(DecodeError::BadByte {
                index: group_idx * 4 + i,
                byte: b,
            })?;
            n |= u32::from(v) << (18 - 6 * i);
        }
        out.push((n >> 16) as u8);
        if pad < 2 {
            out.push((n >> 8) as u8);
        }
        if pad < 1 {
            out.push(n as u8);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // RFC 4648 §10 vectors.
    #[test]
    fn rfc4648_vectors() {
        let cases = [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ];
        for (plain, enc) in cases {
            assert_eq!(encode(plain.as_bytes()), enc);
            assert_eq!(decode(enc).unwrap(), plain.as_bytes());
        }
    }

    #[test]
    fn rejects_bad_length() {
        assert_eq!(decode("abc"), Err(DecodeError::BadLength(3)));
    }

    #[test]
    fn rejects_bad_byte() {
        assert!(matches!(
            decode("ab!d"),
            Err(DecodeError::BadByte {
                index: 2,
                byte: b'!'
            })
        ));
    }

    #[test]
    fn rejects_interior_padding() {
        assert_eq!(decode("Zg==Zg=="), Err(DecodeError::BadPadding));
        assert_eq!(decode("Z==g"), Err(DecodeError::BadPadding));
        assert_eq!(decode("===="), Err(DecodeError::BadPadding));
    }

    proptest! {
        #[test]
        fn roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let enc = encode(&data);
            prop_assert_eq!(decode(&enc).unwrap(), data);
        }

        #[test]
        fn encoded_length_is_ceil(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            prop_assert_eq!(encode(&data).len(), data.len().div_ceil(3) * 4);
        }
    }
}

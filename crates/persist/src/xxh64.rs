//! The one checksum of the on-disk format: XXH64 with seed 0.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// The frame and header checksum: XXH64 (seed 0) of `bytes`, the published
/// algorithm — four lanes of 8-byte little-endian words, the length folded
/// in, and a final avalanche. It seals every BTSF frame (magic..footer) and
/// every `.btd` header (magic..count), so a reader can check a file with it.
pub fn checksum(bytes: &[u8]) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let tail = stripes.remainder();
    let mut h = if bytes.len() >= 32 {
        let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = round(*lane, word(w));
            }
        }
        let [a, b, c, d] = lanes;
        let mut h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        for lane in lanes {
            h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
        }
        h
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = tail.chunks_exact(8);
    for w in &mut words {
        h = (h ^ round(0, word(w))).rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
    }
    let mut rest = words.remainder();
    if rest.len() >= 4 {
        let w = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as u64;
        h = (h ^ w.wrapping_mul(P1)).rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ (b as u64).wrapping_mul(P5)).rotate_left(11).wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Whether `sealed` ends in the little-endian [`checksum`] of the bytes
/// before it, as every frame and every `.btd` header does. `sealed` holds
/// at least the 8-byte checksum word.
pub(crate) fn checksum_matches(sealed: &[u8]) -> bool {
    let (bytes, crc) = sealed.split_at(sealed.len() - 8);
    checksum(bytes) == u64::from_le_bytes(crc.try_into().expect("8 bytes"))
}

//! The write-ahead-log record layer: `PRTB` records whose digests are
//! Merkle-style chained, plus the atomically renamed commit marker that
//! defines the committed horizon.
//!
//! A record is an ordinary [`proteus_graph::wire::RECORD`] envelope —
//! the one every stored format shares — with its `tag` field carrying
//! the record *tag* and the payload opening with the chain digest of
//! the previous record and the record's sequence number:
//!
//! ```text
//! PRTB | version=1 | tag u32 | payload_len u32 | checksum u64 |
//!     prev_digest u64 | seq u64 | body
//! ```
//!
//! The chain digest of record `N` is FNV-1a over record `N`'s full
//! encoded bytes *seeded with the digest of record `N-1`*
//! ([`chain_digest`]); the genesis record seeds from the FNV offset
//! basis. Because each record also *stores* its predecessor's digest in
//! its checksummed payload, a single flipped byte anywhere in the log
//! either breaks that record's frame checksum or breaks the chain at the
//! next record — and splicing, reordering, or duplicating whole
//! (individually valid) records breaks the `prev_digest`/`seq`
//! verification. Nothing past a bad byte is ever silently resynced.
//!
//! Commit is atomic via rename: after a batch of one or more chained
//! records is appended and flushed, the [`MARKER_LEN`]-byte marker file
//! (`store.commit`) is rewritten to a temp file and `rename(2)`d into
//! place. The marker names the committed byte length, the chain digest,
//! and the record count at the batch's last record; bytes beyond the
//! committed length are an uncommitted tail (a crash between append and
//! rename) and are truncated on recovery — the whole batch was never
//! acknowledged, so nothing acknowledged is lost.

use super::StoreError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use proteus_graph::wire::{fnv1a64_continue, open_record, seal_record, Checksum, Envelope, RECORD};

/// WAL file name inside a store directory.
pub const WAL_FILE: &str = "store.wal";
/// Commit-marker file name inside a store directory.
pub const MARKER_FILE: &str = "store.commit";
/// Temp file the marker is staged in before the atomic rename.
pub const MARKER_TMP_FILE: &str = "store.commit.tmp";

/// Commit-marker format version.
pub const MARKER_VERSION: u16 = 1;
/// The `PRTM` envelope row: `committed_len u64 | chain u64 | records u64`
/// and no body.
pub const MARKER: Envelope = Envelope {
    name: "marker",
    magic: *b"PRTM",
    version: Some(MARKER_VERSION),
    fields: 24,
    checksum: Checksum::Fnv1a,
    has_len: false,
    max_body: 0,
};
/// Exact encoded size of the commit marker.
pub const MARKER_LEN: usize = MARKER.header_len();

/// Store format version recorded in the genesis record's body. Version 1
/// also carried trained-artifact records (tag 1); version 2 journals
/// sessions and lanes only. A store of any other version is refused at
/// open with [`StoreError::Version`]; there is no migration.
pub const STORE_FORMAT_VERSION: u32 = 2;

/// Seed of the digest chain (the FNV-1a offset basis) — the
/// `prev_digest` the genesis record carries.
pub const CHAIN_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Fixed prefix of every record payload: `prev_digest u64 | seq u64`.
pub const RECORD_PREFIX: usize = 16;

/// Bytes a record adds around its body: the record header plus the
/// chain prefix.
pub(crate) const RECORD_OVERHEAD: usize = RECORD.header_len() + RECORD_PREFIX;

/// What a WAL record describes. Encoded in the record's `tag` field;
/// unknown tags are rejected as corruption, never skipped. Tag 1
/// held trained artifacts in store format 1; it is retired and never
/// reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordTag {
    /// First record of every store: the store format version.
    Genesis = 0,
    /// A reassembly session opened: the owner's checkpointed secrets.
    SessionOpen = 2,
    /// One optimized frame accepted into an open session (raw wire bytes).
    SessionFrame = 3,
    /// A session finished; its records are garbage from here on.
    SessionDone = 4,
    /// One input frame submitted to a serving lane (raw wire bytes).
    LaneSubmit = 5,
    /// A serving lane fully delivered; its records are garbage.
    LaneDone = 6,
}

impl RecordTag {
    /// Decodes a tag from the record's `tag` field.
    pub fn from_u32(v: u32) -> Option<RecordTag> {
        match v {
            0 => Some(RecordTag::Genesis),
            2 => Some(RecordTag::SessionOpen),
            3 => Some(RecordTag::SessionFrame),
            4 => Some(RecordTag::SessionDone),
            5 => Some(RecordTag::LaneSubmit),
            6 => Some(RecordTag::LaneDone),
            _ => None,
        }
    }
}

/// One decoded, chain-verified WAL record.
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// What the record describes.
    pub tag: RecordTag,
    /// Position in the log (0-based, dense).
    pub seq: u64,
    /// Byte offset of the record's first byte in the WAL.
    pub offset: u64,
    /// The tag-specific body (payload after the 16-byte chain prefix).
    pub body: Bytes,
}

/// Encodes one record: a [`RECORD`] whose payload folds in the previous
/// record's chain digest.
pub fn encode_record(tag: RecordTag, seq: u64, prev_digest: u64, body: &[u8]) -> Bytes {
    let prefix = [prev_digest.to_le_bytes(), seq.to_le_bytes()];
    seal_record(tag as u32, &[&prefix[0], &prefix[1], body])
}

/// The genesis record every store opens with: tag 0, sequence 0, and
/// [`STORE_FORMAT_VERSION`] as its body.
pub fn genesis_record() -> Bytes {
    encode_record(
        RecordTag::Genesis,
        0,
        CHAIN_SEED,
        &STORE_FORMAT_VERSION.to_le_bytes(),
    )
}

/// Advances the chain: digest of a record given its predecessor's digest
/// and its full encoded bytes.
pub fn chain_digest(prev: u64, record_bytes: &[u8]) -> u64 {
    fnv1a64_continue(prev, record_bytes)
}

/// The commit marker: the durable claim of how much of the WAL is
/// committed and what the chain digest at that horizon is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Marker {
    /// Committed WAL length in bytes.
    pub committed_len: u64,
    /// Chain digest after the last committed record.
    pub chain: u64,
    /// Number of committed records.
    pub records: u64,
}

/// Serializes a marker (fixed [`MARKER_LEN`] bytes, self-checksummed).
pub fn encode_marker(m: &Marker) -> Bytes {
    MARKER.seal_fields(|f: &mut BytesMut| {
        f.put_u64_le(m.committed_len);
        f.put_u64_le(m.chain);
        f.put_u64_le(m.records);
    })
}

/// Decodes and validates a marker. Every malformation — wrong size, bad
/// magic, unknown version, checksum mismatch — is a typed
/// [`StoreError::Marker`]: a store whose commit marker cannot be trusted
/// has no committed horizon to recover to.
pub fn decode_marker(data: &[u8]) -> Result<Marker, StoreError> {
    if data.len() != MARKER_LEN {
        return Err(StoreError::marker(format!(
            "marker is {} bytes, expected {MARKER_LEN}",
            data.len()
        )));
    }
    let (_, mut fields, _) = MARKER
        .open(&mut Bytes::copy_from_slice(data))
        .map_err(|e| StoreError::marker(format!("commit marker rejected: {e}")))?;
    Ok(Marker {
        committed_len: fields.get_u64_le(),
        chain: fields.get_u64_le(),
        records: fields.get_u64_le(),
    })
}

/// Replays the committed region of a WAL byte-for-byte against its
/// marker: decodes each frame, verifies the chain digest and sequence
/// number, and checks the final digest/length/count against the marker's
/// claim. Any mismatch is a typed [`StoreError::Corrupt`] naming the
/// byte offset — recovery never resyncs past a bad byte. A genesis
/// record of another store format version is [`StoreError::Version`].
/// Each returned record carries its byte offset, so a caller that finds
/// a chain-valid record inconsistent can name where it starts too.
pub fn replay(wal: &[u8], marker: &Marker) -> Result<Vec<WalRecord>, StoreError> {
    let committed = usize::try_from(marker.committed_len)
        .map_err(|_| StoreError::marker("committed length exceeds addressable memory"))?;
    if wal.len() < committed {
        return Err(StoreError::corrupt(
            wal.len() as u64,
            format!(
                "WAL is {} bytes but the marker committed {committed}",
                wal.len()
            ),
        ));
    }
    let mut records = Vec::new();
    let mut chain = CHAIN_SEED;
    let mut offset = 0usize;
    // replay strictly inside the committed horizon: a frame that claims
    // to extend past it is corruption, not a torn tail
    let mut buf = Bytes::copy_from_slice(&wal[..committed]);
    while offset < committed {
        let before = buf.remaining();
        let (tag, mut payload) = open_record(&mut buf).map_err(|e| {
            // inside the committed region, truncation is corruption too:
            // these bytes were acknowledged as a whole record once
            StoreError::corrupt(offset as u64, format!("record failed to decode: {e}"))
        })?;
        let consumed = before - buf.remaining();
        let tag = RecordTag::from_u32(tag).ok_or_else(|| {
            StoreError::corrupt(offset as u64, format!("unknown record tag {tag}"))
        })?;
        if payload.remaining() < RECORD_PREFIX {
            return Err(StoreError::corrupt(
                offset as u64,
                format!(
                    "record payload is {} bytes, shorter than the {RECORD_PREFIX}-byte chain prefix",
                    payload.remaining()
                ),
            ));
        }
        let prev_digest = payload.get_u64_le();
        let seq = payload.get_u64_le();
        if prev_digest != chain {
            return Err(StoreError::corrupt(
                offset as u64,
                format!(
                    "chain broken: record claims predecessor digest {prev_digest:#018x}, \
                     chain is at {chain:#018x} (spliced, reordered, or duplicated record)"
                ),
            ));
        }
        let expected_seq = records.len() as u64;
        if seq != expected_seq {
            return Err(StoreError::corrupt(
                offset as u64,
                format!("record carries sequence {seq}, expected {expected_seq}"),
            ));
        }
        if records.is_empty() {
            let version = payload.first_chunk::<4>().map(|v| u32::from_le_bytes(*v));
            let Some(found) = version.filter(|_| tag == RecordTag::Genesis) else {
                return Err(StoreError::corrupt(
                    offset as u64,
                    format!("first record is {tag:?}, expected a Genesis carrying a version"),
                ));
            };
            if found != STORE_FORMAT_VERSION {
                return Err(StoreError::Version {
                    found,
                    supported: STORE_FORMAT_VERSION,
                });
            }
        }
        chain = chain_digest(chain, &wal[offset..offset + consumed]);
        records.push(WalRecord {
            tag,
            seq,
            offset: offset as u64,
            body: payload,
        });
        offset += consumed;
    }
    if offset != committed {
        return Err(StoreError::corrupt(
            offset as u64,
            format!("records end at byte {offset}, marker committed {committed}"),
        ));
    }
    if chain != marker.chain {
        return Err(StoreError::corrupt(
            offset as u64,
            format!(
                "chain digest {chain:#018x} does not match the marker's {:#018x}",
                marker.chain
            ),
        ));
    }
    if records.len() as u64 != marker.records {
        return Err(StoreError::corrupt(
            offset as u64,
            format!(
                "{} records replayed, marker committed {}",
                records.len(),
                marker.records
            ),
        ));
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn build_log(bodies: &[(RecordTag, &[u8])]) -> (Vec<u8>, Marker) {
        let mut wal = Vec::new();
        let mut chain = CHAIN_SEED;
        for (seq, (tag, body)) in bodies.iter().enumerate() {
            let rec = encode_record(*tag, seq as u64, chain, body);
            chain = chain_digest(chain, &rec);
            wal.extend_from_slice(&rec);
        }
        let marker = Marker {
            committed_len: wal.len() as u64,
            chain,
            records: bodies.len() as u64,
        };
        (wal, marker)
    }

    fn genesis_body() -> Vec<u8> {
        STORE_FORMAT_VERSION.to_le_bytes().to_vec()
    }

    #[test]
    fn marker_roundtrip_and_tamper() {
        let m = Marker {
            committed_len: 1234,
            chain: 0xDEAD_BEEF,
            records: 7,
        };
        let bytes = encode_marker(&m);
        assert_eq!(bytes.len(), MARKER_LEN);
        assert_eq!(decode_marker(&bytes).unwrap(), m);
        for i in 0..bytes.len() {
            let mut bad = bytes.to_vec();
            bad[i] ^= 0x40;
            assert!(
                decode_marker(&bad).is_err(),
                "marker byte {i} flip undetected"
            );
        }
    }

    /// Pins the WIRE.md `PRTM` layout byte for byte.
    #[test]
    fn marker_layout_matches_golden_bytes() {
        let m = Marker {
            committed_len: 1234,
            chain: 0xDEAD_BEEF,
            records: 7,
        };
        let hex: String = encode_marker(&m)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        let fields = concat!(
            "5052544d",
            "0100",
            "d204000000000000",
            "efbeadde00000000",
            "0700000000000000"
        );
        assert_eq!(hex, format!("{fields}43e8b8c46001aee5"));
    }

    /// Pins the genesis record byte for byte: a `PRTB` record with tag 0
    /// whose payload is the chain seed, sequence 0 and the store format
    /// version word.
    #[test]
    fn genesis_record_matches_golden_bytes() {
        let hex: String = encode_record(RecordTag::Genesis, 0, CHAIN_SEED, &genesis_body())
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        let fields = concat!("50525442", "0100", "00000000", "14000000");
        let payload = concat!("25232284e49cf2cb", "0000000000000000", "02000000");
        assert_eq!(hex, format!("{fields}eb6220378a6b2291{payload}"));
    }

    #[test]
    fn replay_roundtrip() {
        let g = genesis_body();
        let (wal, marker) = build_log(&[
            (RecordTag::Genesis, &g),
            (RecordTag::SessionDone, &7u64.to_le_bytes()),
            (RecordTag::LaneDone, &9u64.to_le_bytes()),
        ]);
        let records = replay(&wal, &marker).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].tag, RecordTag::Genesis);
        assert_eq!(records[2].seq, 2);
        assert_eq!(records[0].offset, 0);
        assert_eq!(
            records[1].offset,
            RECORD_OVERHEAD as u64 + 4,
            "after genesis"
        );
        assert_eq!(&records[1].body[..], &7u64.to_le_bytes());
    }

    #[test]
    fn any_single_byte_flip_in_committed_region_is_detected() {
        let g = genesis_body();
        let (wal, marker) = build_log(&[
            (RecordTag::Genesis, &g),
            (RecordTag::SessionDone, &1u64.to_le_bytes()),
        ]);
        for i in 0..wal.len() {
            let mut bad = wal.clone();
            bad[i] ^= 0x01;
            let err = replay(&bad, &marker);
            assert!(
                matches!(err, Err(StoreError::Corrupt { .. })),
                "flip at byte {i} not detected: {err:?}"
            );
        }
    }

    #[test]
    fn reordered_and_duplicated_records_break_the_chain() {
        let g = genesis_body();
        let (wal, marker) = build_log(&[
            (RecordTag::Genesis, &g),
            (RecordTag::SessionDone, &1u64.to_le_bytes()),
            (RecordTag::LaneDone, &2u64.to_le_bytes()),
        ]);
        // find record boundaries by re-encoding
        let mut chain = CHAIN_SEED;
        let r0 = encode_record(RecordTag::Genesis, 0, chain, &g);
        chain = chain_digest(chain, &r0);
        let r1 = encode_record(RecordTag::SessionDone, 1, chain, &1u64.to_le_bytes());
        chain = chain_digest(chain, &r1);
        let r2 = encode_record(RecordTag::LaneDone, 2, chain, &2u64.to_le_bytes());

        // swap records 1 and 2 (each individually a valid frame)
        let mut swapped = Vec::new();
        swapped.extend_from_slice(&r0);
        swapped.extend_from_slice(&r2);
        swapped.extend_from_slice(&r1);
        assert_eq!(swapped.len(), wal.len());
        assert!(matches!(
            replay(&swapped, &marker),
            Err(StoreError::Corrupt { .. })
        ));

        // duplicate record 1 in place of record 2
        let mut duped = Vec::new();
        duped.extend_from_slice(&r0);
        duped.extend_from_slice(&r1);
        duped.extend_from_slice(&r1);
        let dup_marker = Marker {
            committed_len: duped.len() as u64,
            chain: 0, // attacker cannot forge the chain without the records
            records: 3,
        };
        assert!(matches!(
            replay(&duped, &dup_marker),
            Err(StoreError::Corrupt { .. })
        ));
    }

    /// A request frame where a record belongs is corruption at that
    /// record's offset, even with an intact chain prefix in its payload.
    #[test]
    fn a_request_frame_in_the_log_is_corrupt_at_its_offset() {
        let g = genesis_body();
        let genesis = encode_record(RecordTag::Genesis, 0, CHAIN_SEED, &g);
        let mut payload = chain_digest(CHAIN_SEED, &genesis).to_le_bytes().to_vec();
        payload.extend_from_slice(&1u64.to_le_bytes());
        let frame = proteus_graph::wire::encode_frame_v3(7, RecordTag::LaneDone as u32, &payload);
        let wal = [&genesis[..], &frame[..]].concat();
        let marker = Marker {
            committed_len: wal.len() as u64,
            chain: chain_digest(chain_digest(CHAIN_SEED, &genesis), &frame),
            records: 2,
        };
        match replay(&wal, &marker) {
            Err(StoreError::Corrupt { offset, .. }) => assert_eq!(offset, genesis.len() as u64),
            other => panic!("want Corrupt at the frame, got {other:?}"),
        }
    }

    #[test]
    fn committed_region_shorter_than_marker_is_corrupt() {
        let g = genesis_body();
        let (wal, marker) = build_log(&[(RecordTag::Genesis, &g)]);
        let truncated = &wal[..wal.len() - 1];
        assert!(matches!(
            replay(truncated, &marker),
            Err(StoreError::Corrupt { .. })
        ));
    }
}

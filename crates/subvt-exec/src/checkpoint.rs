//! Chunk-granular checkpoint files for resumable committing folds.
//!
//! A checkpoint file records the *running merged accumulator* of a
//! [`try_par_fold_commit`](crate::try_par_fold_commit) run after each
//! committed chunk. Because the engine commits strictly in chunk
//! order, resuming from the last record — seed the fold with the saved
//! accumulator state and start at the saved chunk index — replays the
//! exact merge sequence of an uninterrupted run, so the resumed result
//! is bit-identical (floats are stored as raw IEEE-754 bit patterns,
//! never formatted).
//!
//! ## File format (version 2, little-endian throughout)
//!
//! A study folds one die stream into N per-cell accumulators (one
//! [`try_par_fold_commit`](crate::try_par_fold_commit) run whose
//! accumulator holds a state per cell); a standalone study is the
//! one-cell case. Each record carries the N state blobs side by side:
//!
//! ```text
//! header:  magic  b"SVCP"       4 bytes
//!          version u32          = 2
//!          fingerprint u64      caller-supplied run identity (all cells)
//!          total_items u64      population size n
//!          cells u32            per-record state count N
//!          crc32 u32            over the 28 header bytes above
//! record:  chunks_done u64      chunks merged into these states
//!          N × (state_len u32, state bytes)
//!          crc32 u32            over the whole record body
//! ```
//!
//! Records only ever append; each is written with a single `write`
//! call and flushed, so a run cancelled at a commit boundary always
//! leaves a well-formed file. The reader is strict: a bad magic,
//! unknown version, CRC mismatch, non-monotonic record order, or a
//! trailing partial record is a hard [`CheckpointError`] — a damaged
//! checkpoint is **rejected, never silently restarted**, because the
//! caller cannot tell a torn file from a wrong one.
//!
//! The `fingerprint` is the caller's hash of everything that shapes
//! the run's results (seed, population, model, spec, …) so a
//! checkpoint cannot be resumed under a different configuration.
//! Worker count and batch size must *not* be part of it: the engine
//! guarantees those don't change results, and resuming at a different
//! `--jobs` is explicitly supported.
//!
//! Version 1 was a single-state format written by an earlier,
//! separate standalone-study pipeline. It is retired: a version-1
//! file fails with [`CheckpointError::BadVersion`]`(1)`, whose message
//! says to rerun the study.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;

const MAGIC: [u8; 4] = *b"SVCP";
const MATRIX_VERSION: u32 = 2;
/// magic + version + fingerprint + total_items + cells + crc32.
const MATRIX_HEADER_LEN: usize = 4 + 4 + 8 + 8 + 4 + 4;

/// Why a checkpoint file could not be written, read, or trusted.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file does not start with the `SVCP` magic — not a
    /// checkpoint file.
    BadMagic,
    /// The file uses a format version this build does not understand
    /// (version 1 is the retired single-state format).
    BadVersion(u32),
    /// The file belongs to a different run configuration.
    FingerprintMismatch {
        /// Fingerprint of the run asking to resume.
        expected: u64,
        /// Fingerprint stored in the file.
        found: u64,
    },
    /// The file was written for a different population size.
    TotalMismatch {
        /// Population of the run asking to resume.
        expected: u64,
        /// Population stored in the file.
        found: u64,
    },
    /// A matrix file was written for a different cell count.
    CellsMismatch {
        /// Cell count of the matrix asking to resume.
        expected: u32,
        /// Cell count stored in the file.
        found: u32,
    },
    /// The file is damaged: truncated, torn, CRC mismatch, or records
    /// out of order. The message names the first violation.
    Corrupt(&'static str),
    /// A stored accumulator state did not decode back into the
    /// expected shape.
    Decode(&'static str),
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::BadVersion(1) => write!(
                f,
                "checkpoint format version 1 is retired; delete the file and rerun the study"
            ),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different run \
                 (fingerprint {found:#018x}, this run is {expected:#018x})"
            ),
            CheckpointError::TotalMismatch { expected, found } => write!(
                f,
                "checkpoint covers {found} items, this run has {expected}"
            ),
            CheckpointError::CellsMismatch { expected, found } => write!(
                f,
                "matrix checkpoint carries {found} cells, this matrix has {expected}"
            ),
            CheckpointError::Corrupt(what) => {
                write!(f, "corrupt checkpoint file ({what}); refusing to resume")
            }
            CheckpointError::Decode(what) => {
                write!(f, "checkpoint state failed to decode ({what})")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected) — the integrity check on the header
/// and every record. Bitwise implementation; checkpoint traffic is a
/// few kilobytes per commit, far below where a table would matter.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Serialises accumulator state for a checkpoint record: fixed-width
/// little-endian integers, floats as raw IEEE-754 bits (bit-exact
/// round-trip, which the resume contract requires).
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// An empty state buffer.
    pub fn new() -> StateWriter {
        StateWriter::default()
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// The serialised state.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Deserialises accumulator state written by [`StateWriter`].
#[derive(Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
}

impl<'a> StateReader<'a> {
    /// Reads from a record's state bytes.
    pub fn new(buf: &'a [u8]) -> StateReader<'a> {
        StateReader { buf }
    }

    /// Takes the next `u64`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Decode`] if the state is exhausted.
    pub fn get_u64(&mut self) -> Result<u64, CheckpointError> {
        let (head, rest) = self
            .buf
            .split_at_checked(8)
            .ok_or(CheckpointError::Decode("state shorter than expected"))?;
        self.buf = rest;
        Ok(u64::from_le_bytes(head.try_into().expect("8-byte split")))
    }

    /// Takes the next `f64` (exact bit pattern).
    ///
    /// # Errors
    ///
    /// As [`StateReader::get_u64`].
    pub fn get_f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Asserts the state was fully consumed — a length mismatch means
    /// the state does not belong to this accumulator shape.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Decode`] if bytes remain.
    pub fn finish(self) -> Result<(), CheckpointError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(CheckpointError::Decode("state longer than expected"))
        }
    }
}

/// The latest committed matrix record: one state blob per cell, all
/// merged through the same `chunks_done` chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixCheckpointRecord {
    /// Chunks merged into every cell state.
    pub chunks_done: u64,
    /// One opaque accumulator state per cell, in cell order.
    pub states: Vec<Vec<u8>>,
}

/// A fully validated checkpoint file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixCheckpoint {
    /// Matrix identity the file was created with.
    pub fingerprint: u64,
    /// Population size the file was created with.
    pub total_items: u64,
    /// Cell count every record carries.
    pub cells: u32,
    /// The last committed record; `None` for a header-only file.
    pub last: Option<MatrixCheckpointRecord>,
}

impl MatrixCheckpoint {
    /// Checks the file belongs to the matrix asking to resume.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::FingerprintMismatch`] /
    /// [`CheckpointError::TotalMismatch`] /
    /// [`CheckpointError::CellsMismatch`] when it does not.
    pub fn verify(
        &self,
        fingerprint: u64,
        total_items: u64,
        cells: u32,
    ) -> Result<(), CheckpointError> {
        if self.fingerprint != fingerprint {
            return Err(CheckpointError::FingerprintMismatch {
                expected: fingerprint,
                found: self.fingerprint,
            });
        }
        if self.total_items != total_items {
            return Err(CheckpointError::TotalMismatch {
                expected: total_items,
                found: self.total_items,
            });
        }
        if self.cells != cells {
            return Err(CheckpointError::CellsMismatch {
                expected: cells,
                found: self.cells,
            });
        }
        Ok(())
    }
}

/// Append-only writer for a checkpoint file.
#[derive(Debug)]
pub struct MatrixCheckpointWriter {
    file: File,
    last_chunks_done: u64,
    cells: u32,
}

impl MatrixCheckpointWriter {
    /// Creates (truncating) a checkpoint file and writes its header.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failure.
    pub fn create(
        path: &Path,
        fingerprint: u64,
        total_items: u64,
        cells: u32,
    ) -> Result<MatrixCheckpointWriter, CheckpointError> {
        let mut header = Vec::with_capacity(MATRIX_HEADER_LEN);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&MATRIX_VERSION.to_le_bytes());
        header.extend_from_slice(&fingerprint.to_le_bytes());
        header.extend_from_slice(&total_items.to_le_bytes());
        header.extend_from_slice(&cells.to_le_bytes());
        let crc = crc32(&header);
        header.extend_from_slice(&crc.to_le_bytes());
        let mut file = File::create(path)?;
        file.write_all(&header)?;
        file.flush()?;
        Ok(MatrixCheckpointWriter {
            file,
            last_chunks_done: 0,
            cells,
        })
    }

    /// Appends one committed record (a single `write` + flush, so a
    /// cancellation between commits never tears the file).
    ///
    /// # Panics
    ///
    /// Panics if `chunks_done` does not increase monotonically or
    /// `states` does not match the header's cell count — both hold by
    /// construction in the commit engine.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failure.
    pub fn append(&mut self, chunks_done: u64, states: &[Vec<u8>]) -> Result<(), CheckpointError> {
        assert!(
            chunks_done > self.last_chunks_done,
            "checkpoint records must advance: {} after {}",
            chunks_done,
            self.last_chunks_done
        );
        assert_eq!(
            states.len(),
            self.cells as usize,
            "matrix record must carry one state per cell"
        );
        let body_len = 8 + states.iter().map(|s| 4 + s.len()).sum::<usize>();
        let mut record = Vec::with_capacity(body_len + 4);
        record.extend_from_slice(&chunks_done.to_le_bytes());
        for state in states {
            let state_len = u32::try_from(state.len())
                .map_err(|_| CheckpointError::Decode("state too large"))?;
            record.extend_from_slice(&state_len.to_le_bytes());
            record.extend_from_slice(state);
        }
        let crc = crc32(&record);
        record.extend_from_slice(&crc.to_le_bytes());
        self.file.write_all(&record)?;
        self.file.flush()?;
        self.last_chunks_done = chunks_done;
        Ok(())
    }
}

/// Reads and fully validates a checkpoint file.
///
/// Every record's CRC is checked and record order must strictly
/// advance; the last record wins (earlier ones are just the commit
/// history). Any structural damage is a hard error — see the module
/// docs for why a damaged file is never treated as absent.
///
/// # Errors
///
/// [`CheckpointError::Io`] if the file cannot be read,
/// [`CheckpointError::BadMagic`] / [`CheckpointError::BadVersion`] /
/// [`CheckpointError::Corrupt`] on structural damage; a retired
/// version-1 file is [`CheckpointError::BadVersion`]`(1)`.
pub fn read_matrix_checkpoint(path: &Path) -> Result<MatrixCheckpoint, CheckpointError> {
    let data = std::fs::read(path)?;
    parse_matrix_checkpoint(&data)
}

fn parse_matrix_checkpoint(data: &[u8]) -> Result<MatrixCheckpoint, CheckpointError> {
    if data.len() < 4 {
        return Err(
            if data.starts_with(&MAGIC[..data.len()]) && !data.is_empty() {
                CheckpointError::Corrupt("truncated header")
            } else {
                CheckpointError::BadMagic
            },
        );
    }
    if data[..4] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let field_u32 = |at: usize| u32::from_le_bytes(data[at..at + 4].try_into().expect("4 bytes"));
    let field_u64 = |at: usize| u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"));
    if data.len() < 8 {
        return Err(CheckpointError::Corrupt("truncated header"));
    }
    // Version before length: a well-formed (retired) version-1 file is
    // shorter than this header, and must report the version, not
    // truncation.
    let version = field_u32(4);
    if version != MATRIX_VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    if data.len() < MATRIX_HEADER_LEN {
        return Err(CheckpointError::Corrupt("truncated header"));
    }
    if crc32(&data[..MATRIX_HEADER_LEN - 4]) != field_u32(MATRIX_HEADER_LEN - 4) {
        return Err(CheckpointError::Corrupt("header CRC mismatch"));
    }
    let fingerprint = field_u64(8);
    let total_items = field_u64(16);
    let cells = field_u32(24);

    let mut last: Option<MatrixCheckpointRecord> = None;
    let mut at = MATRIX_HEADER_LEN;
    while at < data.len() {
        let start = at;
        if data.len() - at < 8 {
            return Err(CheckpointError::Corrupt("truncated record"));
        }
        let chunks_done = field_u64(at);
        at += 8;
        let mut states = Vec::with_capacity(cells as usize);
        for _ in 0..cells {
            if data.len() - at < 4 {
                return Err(CheckpointError::Corrupt("truncated record"));
            }
            let state_len = field_u32(at) as usize;
            at += 4;
            if data.len() - at < state_len {
                return Err(CheckpointError::Corrupt("truncated record"));
            }
            states.push(data[at..at + state_len].to_vec());
            at += state_len;
        }
        if data.len() - at < 4 {
            return Err(CheckpointError::Corrupt("truncated record"));
        }
        if crc32(&data[start..at]) != field_u32(at) {
            return Err(CheckpointError::Corrupt("record CRC mismatch"));
        }
        at += 4;
        if last.as_ref().is_some_and(|l| chunks_done <= l.chunks_done) {
            return Err(CheckpointError::Corrupt("records out of order"));
        }
        last = Some(MatrixCheckpointRecord {
            chunks_done,
            states,
        });
    }
    Ok(MatrixCheckpoint {
        fingerprint,
        total_items,
        cells,
        last,
    })
}

/// Opens an existing checkpoint for resuming: validates the whole
/// file, then returns it with a writer positioned to append.
///
/// # Errors
///
/// As [`read_matrix_checkpoint`].
pub fn open_matrix_for_resume(
    path: &Path,
) -> Result<(MatrixCheckpoint, MatrixCheckpointWriter), CheckpointError> {
    let checkpoint = read_matrix_checkpoint(path)?;
    let file = OpenOptions::new().append(true).open(path)?;
    let last_chunks_done = checkpoint.last.as_ref().map_or(0, |r| r.chunks_done);
    let cells = checkpoint.cells;
    Ok((
        checkpoint,
        MatrixCheckpointWriter {
            file,
            last_chunks_done,
            cells,
        },
    ))
}

/// FNV-1a hash of a run-identity description — the conventional way
/// to derive a checkpoint fingerprint from a config string.
pub fn fingerprint_of(description: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in description.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("subvt-checkpoint-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn matrix_round_trips_per_cell_states() {
        let path = tmp("matrix-roundtrip");
        let mut w = MatrixCheckpointWriter::create(&path, 0xFACE, 500, 3).unwrap();
        w.append(2, &[vec![1], vec![2, 2], vec![]]).unwrap();
        w.append(5, &[vec![9], vec![8, 8], vec![7]]).unwrap();
        let cp = read_matrix_checkpoint(&path).unwrap();
        assert_eq!((cp.fingerprint, cp.total_items, cp.cells), (0xFACE, 500, 3));
        cp.verify(0xFACE, 500, 3).unwrap();
        assert!(matches!(
            cp.verify(0xFACE, 500, 4),
            Err(CheckpointError::CellsMismatch {
                expected: 4,
                found: 3
            })
        ));
        let last = cp.last.unwrap();
        assert_eq!(last.chunks_done, 5);
        assert_eq!(last.states, vec![vec![9], vec![8, 8], vec![7]]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn matrix_resume_writer_appends_after_existing_records() {
        let path = tmp("matrix-resume");
        let mut w = MatrixCheckpointWriter::create(&path, 4, 60, 2).unwrap();
        w.append(1, &[vec![5; 10], vec![6; 10]]).unwrap();
        drop(w);
        let (cp, mut w) = open_matrix_for_resume(&path).unwrap();
        assert_eq!(cp.last.as_ref().unwrap().chunks_done, 1);
        w.append(3, &[vec![1; 10], vec![2; 10]]).unwrap();
        let cp = read_matrix_checkpoint(&path).unwrap();
        assert_eq!(cp.last.unwrap().chunks_done, 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_only_file_has_no_record() {
        let path = tmp("header-only");
        MatrixCheckpointWriter::create(&path, 7, 10, 1).unwrap();
        let cp = read_matrix_checkpoint(&path).unwrap();
        assert_eq!((cp.cells, cp.last), (1, None));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "must advance")]
    fn writer_rejects_non_monotonic_records() {
        let path = tmp("non-monotonic");
        let mut w = MatrixCheckpointWriter::create(&path, 1, 10, 1).unwrap();
        w.append(4, &[vec![]]).unwrap();
        let _ = w.append(4, &[vec![]]);
    }

    #[test]
    fn matrix_damage_is_rejected_not_salvaged() {
        let path = tmp("matrix-damage");
        let mut w = MatrixCheckpointWriter::create(&path, 3, 64, 2).unwrap();
        w.append(1, &[vec![9; 20], vec![8; 20]]).unwrap();
        drop(w);
        let good = std::fs::read(&path).unwrap();
        let n = good.len();

        let mut bad = good.clone();
        bad[n - 10] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            read_matrix_checkpoint(&path),
            Err(CheckpointError::Corrupt("record CRC mismatch"))
        ));

        std::fs::write(&path, &good[..n - 7]).unwrap();
        assert!(matches!(
            read_matrix_checkpoint(&path),
            Err(CheckpointError::Corrupt("truncated record"))
        ));

        // Not a checkpoint at all.
        std::fs::write(&path, b"definitely not a checkpoint").unwrap();
        assert!(matches!(
            read_matrix_checkpoint(&path),
            Err(CheckpointError::BadMagic)
        ));

        // An unknown version.
        let mut versioned = good.clone();
        versioned[4] = 99;
        std::fs::write(&path, &versioned).unwrap();
        assert!(matches!(
            read_matrix_checkpoint(&path),
            Err(CheckpointError::BadVersion(99))
        ));

        // Header CRC mismatch (version intact, fingerprint flipped).
        let mut torn = good;
        torn[9] ^= 0x01;
        std::fs::write(&path, &torn).unwrap();
        assert!(matches!(
            read_matrix_checkpoint(&path),
            Err(CheckpointError::Corrupt("header CRC mismatch"))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn state_codec_round_trips_exact_bits() {
        let mut w = StateWriter::new();
        w.put_u64(42);
        w.put_f64(-0.0);
        w.put_f64(f64::INFINITY);
        w.put_f64(1.0 / 3.0);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.get_u64().unwrap(), 42);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64().unwrap(), f64::INFINITY);
        assert_eq!(r.get_f64().unwrap().to_bits(), (1.0f64 / 3.0).to_bits());
        r.finish().unwrap();

        let bytes = {
            let mut w = StateWriter::new();
            w.put_u64(1);
            w.into_bytes()
        };
        let mut r = StateReader::new(&bytes);
        r.get_u64().unwrap();
        assert!(matches!(r.get_u64(), Err(CheckpointError::Decode(_))));
        let r = StateReader::new(&bytes);
        assert!(matches!(r.finish(), Err(CheckpointError::Decode(_))));
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let a = fingerprint_of("seed=1 dies=100");
        assert_eq!(a, fingerprint_of("seed=1 dies=100"));
        assert_ne!(a, fingerprint_of("seed=2 dies=100"));
    }
}

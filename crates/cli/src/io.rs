//! Raw little-endian float files: one reader and one writer for both
//! element types, over [`Float::read_le`] and [`Float::write_le`].

use crate::CliError;
use pwrel_data::{Dims, Float};
use std::fs::{self, File};
use std::io::Read;
use std::path::Path;

/// Opens the raw file at `path` after checking that it holds exactly
/// `dims.len()` values of `F`. This is the one raw-length check: every
/// command that reads a raw file makes it before it compresses or
/// compares anything.
pub fn open<F: Float>(path: &str, dims: Dims) -> Result<File, CliError> {
    let file = File::open(path)?;
    let have = file.metadata()?.len();
    let want = (dims.len() as u64).saturating_mul(F::NBYTES as u64);
    if have != want {
        return Err(CliError::Usage(format!(
            "{path} holds {have} bytes but {dims} f{} values need {want}",
            F::BITS
        )));
    }
    Ok(file)
}

/// Reads the raw file at `path` as `dims.len()` values of `F`.
pub fn read<F: Float>(path: &str, dims: Dims) -> Result<Vec<F>, CliError> {
    let mut bytes = Vec::new();
    open::<F>(path, dims)?.read_to_end(&mut bytes)?;
    Ok(bytes
        .chunks_exact(F::NBYTES)
        .filter_map(F::read_le)
        .collect())
}

/// Writes `data` to `path` as a raw little-endian file.
pub fn write<F: Float>(path: impl AsRef<Path>, data: &[F]) -> Result<(), CliError> {
    let mut out = Vec::with_capacity(data.len() * F::NBYTES);
    for &v in data {
        v.write_le(&mut out);
    }
    fs::write(path, out)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("pwrel_cli_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_str().unwrap().to_string()
    }

    #[test]
    fn f32_file_round_trip() {
        let p = tmp("a.f32");
        let data = vec![1.5f32, -2.25, 0.0, f32::MIN_POSITIVE];
        write(&p, &data).unwrap();
        assert_eq!(read::<f32>(&p, Dims::d1(4)).unwrap(), data);
    }

    #[test]
    fn f64_file_round_trip() {
        let p = tmp("a.f64");
        let data = vec![1.5f64, -2.25, 1e300];
        write(&p, &data).unwrap();
        assert_eq!(read::<f64>(&p, Dims::d1(3)).unwrap(), data);
    }

    #[test]
    fn length_that_disagrees_with_the_shape_is_rejected() {
        let p = tmp("bad.f32");
        std::fs::write(&p, [0u8; 6]).unwrap();
        assert!(matches!(
            read::<f32>(&p, Dims::d1(1)),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            read::<f32>(&p, Dims::d1(2)),
            Err(CliError::Usage(_))
        ));
        std::fs::write(&p, [0u8; 8]).unwrap();
        assert_eq!(read::<f32>(&p, Dims::d1(2)).unwrap().len(), 2);
        assert!(open::<f64>(&p, Dims::d1(2)).is_err());
    }
}

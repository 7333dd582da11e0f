//! Grid dimensionality descriptor shared by all codecs.

/// Dimensions of a 1D/2D/3D scalar field.
///
/// Storage convention: `x` varies fastest. The linear index of `(i, j, k)`
/// (with `i` along x, `j` along y, `k` along z) is `(k * ny + j) * nx + i`.
/// The paper's predictors (Lorenzo) and ZFP's 4^d blocks both follow this
/// raster order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dims {
    rank: u8,
    /// Fastest-varying extent.
    pub nx: usize,
    /// Middle extent (1 for 1D).
    pub ny: usize,
    /// Slowest extent (1 for 1D/2D).
    pub nz: usize,
}

impl Dims {
    /// A 1D array of `n` points.
    pub fn d1(n: usize) -> Self {
        Self {
            rank: 1,
            nx: n,
            ny: 1,
            nz: 1,
        }
    }

    /// A 2D `ny × nx` grid (`nx` fastest).
    pub fn d2(ny: usize, nx: usize) -> Self {
        Self {
            rank: 2,
            nx,
            ny,
            nz: 1,
        }
    }

    /// A 3D `nz × ny × nx` grid (`nx` fastest).
    pub fn d3(nz: usize, ny: usize, nx: usize) -> Self {
        Self {
            rank: 3,
            nx,
            ny,
            nz,
        }
    }

    /// Dimensionality (1, 2 or 3).
    pub fn rank(&self) -> u8 {
        self.rank
    }

    /// Total number of points.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// True when the grid holds no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear index of `(i, j, k)`.
    #[inline]
    pub fn index(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny && k < self.nz);
        (k * self.ny + j) * self.nx + i
    }

    /// Serializes to `(rank, nx, ny, nz)` for container headers.
    pub fn to_header(&self) -> (u8, u64, u64, u64) {
        (self.rank, self.nx as u64, self.ny as u64, self.nz as u64)
    }

    /// Rebuilds from header fields; returns `None` for invalid ranks and
    /// for extents whose point count does not fit `usize`, so that
    /// [`Dims::len`] cannot wrap on a forged header.
    pub fn from_header(rank: u8, nx: u64, ny: u64, nz: u64) -> Option<Self> {
        let nx = usize::try_from(nx).ok()?;
        let ny = usize::try_from(ny).ok()?;
        let nz = usize::try_from(nz).ok()?;
        nx.checked_mul(ny)?.checked_mul(nz)?;
        match rank {
            1 if ny == 1 && nz == 1 => Some(Self::d1(nx)),
            2 if nz == 1 => Some(Self::d2(ny, nx)),
            3 => Some(Self::d3(nz, ny, nx)),
            _ => None,
        }
    }
}

impl std::fmt::Display for Dims {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.rank {
            1 => write!(f, "{}", self.nx),
            2 => write!(f, "{}x{}", self.ny, self.nx),
            _ => write!(f, "{}x{}x{}", self.nz, self.ny, self.nx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_len() {
        assert_eq!(Dims::d1(10).len(), 10);
        assert_eq!(Dims::d2(3, 4).len(), 12);
        assert_eq!(Dims::d3(2, 3, 4).len(), 24);
        assert_eq!(Dims::d1(10).rank(), 1);
        assert_eq!(Dims::d2(3, 4).rank(), 2);
        assert_eq!(Dims::d3(2, 3, 4).rank(), 3);
    }

    #[test]
    fn index_is_x_fastest() {
        let d = Dims::d3(2, 3, 4);
        assert_eq!(d.index(0, 0, 0), 0);
        assert_eq!(d.index(1, 0, 0), 1);
        assert_eq!(d.index(0, 1, 0), 4);
        assert_eq!(d.index(0, 0, 1), 12);
        assert_eq!(d.index(3, 2, 1), 23);
    }

    #[test]
    fn header_round_trip() {
        for d in [Dims::d1(7), Dims::d2(5, 6), Dims::d3(2, 3, 4)] {
            let (r, x, y, z) = d.to_header();
            assert_eq!(Dims::from_header(r, x, y, z), Some(d));
        }
        assert_eq!(Dims::from_header(4, 1, 1, 1), None);
        assert_eq!(Dims::from_header(1, 5, 2, 1), None);
        // 2^63 + 8 rows of 2 would wrap `len()` to 16.
        assert_eq!(Dims::from_header(2, (1 << 63) + 8, 2, 1), None);
        assert_eq!(Dims::from_header(3, 1 << 32, 1 << 32, 1), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Dims::d1(280953867).to_string(), "280953867");
        assert_eq!(Dims::d2(1800, 3600).to_string(), "1800x3600");
        assert_eq!(Dims::d3(512, 512, 512).to_string(), "512x512x512");
    }
}

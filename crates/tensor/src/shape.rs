use std::fmt;

/// The logical shape of a 4-D activation tensor: `(N, C, H, W)`.
///
/// `N` is the minibatch size, `C` the number of feature-map channels, and
/// `H`/`W` the spatial extent of each map, matching the nomenclature of
/// Section II-C of the cDMA paper.
///
/// ```
/// use cdma_tensor::Shape4;
/// // AlexNet conv0 output for a single image: (96, 55, 55).
/// let s = Shape4::new(1, 96, 55, 55);
/// assert_eq!(s.len(), 96 * 55 * 55);
/// assert_eq!(s.bytes(), s.len() * 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape4 {
    /// Minibatch size.
    pub n: usize,
    /// Feature-map channels.
    pub c: usize,
    /// Spatial height.
    pub h: usize,
    /// Spatial width.
    pub w: usize,
}

impl Shape4 {
    /// Creates a shape from its four extents.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero; zero-sized activation maps never occur
    /// in the networks under study and would make density undefined.
    pub fn new(n: usize, c: usize, h: usize, w: usize) -> Self {
        assert!(
            n > 0 && c > 0 && h > 0 && w > 0,
            "all tensor extents must be non-zero, got ({n}, {c}, {h}, {w})"
        );
        Shape4 { n, c, h, w }
    }

    /// Shape of a fully-connected layer output: `C` features per image,
    /// spatially `1×1` (the paper displays fc layers as `(4096, 1, 1)`).
    pub fn fc(n: usize, features: usize) -> Self {
        Shape4::new(n, features, 1, 1)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.n * self.c * self.h * self.w
    }

    /// Returns `true` when the shape holds no elements. Kept for API
    /// completeness; constructors reject empty shapes so this is never
    /// `true` for values built through [`Shape4::new`].
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of elements in one image's worth of activations (`C·H·W`).
    pub fn per_image(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Number of elements in one channel plane (`H·W`).
    pub fn plane(&self) -> usize {
        self.h * self.w
    }

    /// Size in bytes when stored as `f32`, the data type used throughout the
    /// paper's evaluation.
    pub fn bytes(&self) -> usize {
        self.len() * std::mem::size_of::<f32>()
    }

    /// The same shape with a different minibatch size.
    #[cfg(test)]
    fn with_batch(&self, n: usize) -> Self {
        Shape4::new(n, self.c, self.h, self.w)
    }
}

impl fmt::Display for Shape4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {}, {})", self.n, self.c, self.h, self.w)
    }
}

impl From<(usize, usize, usize, usize)> for Shape4 {
    fn from((n, c, h, w): (usize, usize, usize, usize)) -> Self {
        Shape4::new(n, c, h, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_and_bytes() {
        let s = Shape4::new(2, 3, 5, 7);
        assert_eq!(s.len(), 210);
        assert_eq!(s.bytes(), 840);
        assert_eq!(s.per_image(), 105);
        assert_eq!(s.plane(), 35);
        assert!(!s.is_empty());
    }

    #[test]
    fn fc_shape_is_spatially_unit() {
        let s = Shape4::fc(256, 4096);
        assert_eq!(s, Shape4::new(256, 4096, 1, 1));
        assert_eq!(s.plane(), 1);
    }

    #[test]
    fn with_batch_preserves_chw() {
        let s = Shape4::new(1, 96, 55, 55).with_batch(128);
        assert_eq!(s.n, 128);
        assert_eq!(s.per_image(), 96 * 55 * 55);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_extent_rejected() {
        let _ = Shape4::new(1, 0, 5, 5);
    }

    #[test]
    fn display_and_from_tuple() {
        let s: Shape4 = (1, 2, 3, 4).into();
        assert_eq!(s.to_string(), "(1, 2, 3, 4)");
    }
}

use crate::{ChannelPlane, Layout, Shape4, ShapeMismatchError};

/// An owned 4-D `f32` activation tensor with an explicit memory [`Layout`].
///
/// This is the unit of data the cDMA engine offloads: one layer's output
/// activation maps for a whole minibatch. All logical accessors take
/// `(n, c, h, w)` coordinates regardless of layout, so algorithmic code is
/// layout-agnostic while the raw byte stream handed to the compressors is
/// exactly what a GPU in that layout would DMA.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape4,
    layout: Layout,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: Shape4, layout: Layout) -> Self {
        Tensor {
            shape,
            layout,
            data: vec![0.0; shape.len()],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: Shape4, layout: Layout, value: f32) -> Self {
        Tensor {
            shape,
            layout,
            data: vec![value; shape.len()],
        }
    }

    /// Creates a tensor by evaluating `f(n, c, h, w)` for every element.
    ///
    /// ```
    /// use cdma_tensor::{Layout, Shape4, Tensor};
    /// let t = Tensor::from_fn(Shape4::new(1, 1, 2, 2), Layout::Nchw, |_, _, h, w| {
    ///     (h * 2 + w) as f32
    /// });
    /// assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    /// ```
    pub fn from_fn<F>(shape: Shape4, layout: Layout, mut f: F) -> Self
    where
        F: FnMut(usize, usize, usize, usize) -> f32,
    {
        let mut t = Tensor::zeros(shape, layout);
        for n in 0..shape.n {
            for c in 0..shape.c {
                for h in 0..shape.h {
                    for w in 0..shape.w {
                        let off = layout.offset(shape, n, c, h, w);
                        t.data[off] = f(n, c, h, w);
                    }
                }
            }
        }
        t
    }

    /// Wraps an existing linear buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.len()`.
    pub fn from_vec(shape: Shape4, layout: Layout, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.len(),
            "buffer length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.len()
        );
        Tensor {
            shape,
            layout,
            data,
        }
    }

    /// The logical shape.
    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    /// The memory layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements (never true for tensors built
    /// from a valid [`Shape4`]).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the raw data in bytes — the amount of PCIe traffic offloading
    /// this tensor uncompressed would generate.
    pub fn bytes(&self) -> usize {
        self.shape.bytes()
    }

    /// Reads the element at logical coordinate `(n, c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn get(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.bounds_check(n, c, h, w);
        self.data[self.layout.offset(self.shape, n, c, h, w)]
    }

    /// Writes the element at logical coordinate `(n, c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn set(&mut self, n: usize, c: usize, h: usize, w: usize, value: f32) {
        self.bounds_check(n, c, h, w);
        let off = self.layout.offset(self.shape, n, c, h, w);
        self.data[off] = value;
    }

    fn bounds_check(&self, n: usize, c: usize, h: usize, w: usize) {
        let s = self.shape;
        assert!(
            n < s.n && c < s.c && h < s.h && w < s.w,
            "coordinate ({n}, {c}, {h}, {w}) out of bounds for shape {s}"
        );
    }

    /// The raw linear data in this tensor's layout. This is the exact byte
    /// stream the DMA engine sees.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the raw linear data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its raw buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// The raw data reinterpreted as bytes (little-endian `f32`s), i.e. what
    /// travels over PCIe.
    pub fn as_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.data.len() * 4);
        for v in &self.data {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Produces a new tensor with identical logical contents in a different
    /// layout. Returns a clone when the layout already matches.
    pub fn to_layout(&self, layout: Layout) -> Tensor {
        if layout == self.layout {
            return self.clone();
        }
        let mut out = Tensor::zeros(self.shape, layout);
        for (src_off, &v) in self.data.iter().enumerate() {
            let (n, c, h, w) = self.layout.coords(self.shape, src_off);
            let dst_off = layout.offset(self.shape, n, c, h, w);
            out.data[dst_off] = v;
        }
        out
    }

    /// Copies data from `src`, which must have the same shape (layouts may
    /// differ; data is transposed as needed).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeMismatchError`] when the shapes differ.
    pub fn checked_copy_from(&mut self, src: &Tensor) -> Result<(), ShapeMismatchError> {
        if src.shape != self.shape {
            return Err(ShapeMismatchError {
                expected: self.shape,
                actual: src.shape,
            });
        }
        if src.layout == self.layout {
            self.data.copy_from_slice(&src.data);
        } else {
            let converted = src.to_layout(self.layout);
            self.data.copy_from_slice(&converted.data);
        }
        Ok(())
    }

    /// Number of non-zero elements.
    pub fn count_nonzero(&self) -> usize {
        self.data.iter().filter(|&&v| v != 0.0).count()
    }

    /// Activation density: non-zero elements divided by total elements
    /// (`AVGdensity` in Section IV of the paper). Sparsity is `1 - density`.
    pub fn density(&self) -> f64 {
        self.count_nonzero() as f64 / self.len() as f64
    }

    /// Applies ReLU in place (thresholds negatives to zero) — the operation
    /// that creates the sparsity cDMA exploits.
    #[cfg(test)]
    fn relu_in_place(&mut self) {
        for v in &mut self.data {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }

    /// A borrowed view of one `(n, c)` channel plane, used by the Fig. 5
    /// visualizations.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `c` is out of bounds.
    pub fn plane(&self, n: usize, c: usize) -> ChannelPlane<'_> {
        ChannelPlane::new(self, n, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(layout: Layout) -> Tensor {
        Tensor::from_fn(Shape4::new(2, 3, 4, 5), layout, |n, c, h, w| {
            (n * 1000 + c * 100 + h * 10 + w) as f32
        })
    }

    #[test]
    fn get_set_roundtrip_all_layouts() {
        for layout in Layout::ALL {
            let mut t = Tensor::zeros(Shape4::new(2, 3, 4, 5), layout);
            t.set(1, 2, 3, 4, 42.0);
            assert_eq!(t.get(1, 2, 3, 4), 42.0);
            assert_eq!(t.count_nonzero(), 1);
        }
    }

    #[test]
    fn from_fn_matches_get() {
        for layout in Layout::ALL {
            let t = sample(layout);
            assert_eq!(t.get(1, 2, 3, 4), 1234.0);
            assert_eq!(t.get(0, 0, 0, 0), 0.0);
        }
    }

    #[test]
    fn to_layout_preserves_logical_contents() {
        let t = sample(Layout::Nchw);
        for layout in Layout::ALL {
            let u = t.to_layout(layout);
            assert_eq!(u.layout(), layout);
            for n in 0..2 {
                for c in 0..3 {
                    for h in 0..4 {
                        for w in 0..5 {
                            assert_eq!(t.get(n, c, h, w), u.get(n, c, h, w));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn to_layout_changes_byte_order() {
        let t = sample(Layout::Nchw);
        let u = t.to_layout(Layout::Nhwc);
        assert_ne!(t.as_slice(), u.as_slice());
        assert_eq!(t.as_slice(), u.to_layout(Layout::Nchw).as_slice());
    }

    #[test]
    fn density_counts_zeros() {
        let mut t = Tensor::full(Shape4::new(1, 1, 2, 5), Layout::Nchw, 1.0);
        assert_eq!(t.density(), 1.0);
        for w in 0..5 {
            t.set(0, 0, 0, w, 0.0);
        }
        assert_eq!(t.density(), 0.5);
    }

    #[test]
    fn relu_thresholds_negatives() {
        let mut t = Tensor::from_vec(
            Shape4::new(1, 1, 1, 4),
            Layout::Nchw,
            vec![-1.0, 2.0, -3.0, 0.5],
        );
        t.relu_in_place();
        assert_eq!(t.as_slice(), &[0.0, 2.0, 0.0, 0.5]);
    }

    #[test]
    fn checked_copy_from_converts_layout() {
        let src = sample(Layout::Nhwc);
        let mut dst = Tensor::zeros(src.shape(), Layout::Nchw);
        dst.checked_copy_from(&src).unwrap();
        assert_eq!(dst.get(1, 2, 3, 4), 1234.0);
    }

    #[test]
    fn checked_copy_from_rejects_mismatch() {
        let src = Tensor::zeros(Shape4::new(1, 1, 1, 2), Layout::Nchw);
        let mut dst = Tensor::zeros(Shape4::new(1, 1, 2, 1), Layout::Nchw);
        let err = dst.checked_copy_from(&src).unwrap_err();
        assert_eq!(err.actual, src.shape());
    }

    #[test]
    fn as_bytes_is_little_endian_f32() {
        let t = Tensor::from_vec(Shape4::new(1, 1, 1, 1), Layout::Nchw, vec![1.0]);
        assert_eq!(t.as_bytes(), 1.0f32.to_le_bytes().to_vec());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let t = Tensor::zeros(Shape4::new(1, 1, 1, 1), Layout::Nchw);
        let _ = t.get(0, 0, 0, 1);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_length_checked() {
        let _ = Tensor::from_vec(Shape4::new(1, 1, 1, 3), Layout::Nchw, vec![0.0; 2]);
    }
}

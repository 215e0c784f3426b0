//! TS-PPR model save/load on top of the [`crate::format`] container.
//!
//! A model file carries `META` (`kind = "tsppr-model"` plus caller
//! metadata), `DIMS` (`[K, F, users, items]`), `UMAT`, `VMAT` and `AMAT`
//! (all `A_u` concatenated). [`ModelView`] validates everything up front
//! and then serves factor rows zero-copy out of the sections' buffers;
//! [`load_model`] turns it into an owned [`TsPprModel`] that takes over the
//! `UMAT` / `VMAT` buffers.

use crate::error::{corrupt, schema, StoreError};
use crate::format::{commit, encode_meta, StoreFile, Tag, Writer};
use rrc_core::TsPprModel;
use rrc_linalg::DMatrix;
use std::path::Path;

/// `META` kind for TS-PPR model files.
pub const KIND_TSPPR: &str = "tsppr-model";

/// `META` key carrying the training-config fingerprint (16 lowercase hex
/// digits — the same `TrainCheckpoint::fingerprint_of` value checkpoints
/// store). Publishers write it so a reader of the file
/// ([`ModelView::fingerprint`]) can tie it to the exact training
/// configuration.
pub const META_FINGERPRINT: &str = "fingerprint";

/// Serialize a model (plus caller metadata) into container bytes.
pub fn encode_model(model: &TsPprModel, extra_meta: &[(String, String)]) -> Vec<u8> {
    let mut meta = vec![("kind".to_string(), KIND_TSPPR.to_string())];
    meta.extend(extra_meta.iter().cloned());
    let mut w = Writer::new();
    w.section(Tag::META, &encode_meta(&meta));
    push_model_sections(&mut w, model);
    w.finish()
}

/// Append `DIMS`/`UMAT`/`VMAT`/`AMAT` for `model` — shared with the
/// checkpoint encoder.
pub(crate) fn push_model_sections(w: &mut Writer, model: &TsPprModel) {
    w.u64_section(
        Tag::DIMS,
        &[
            model.k() as u64,
            model.f_dim() as u64,
            model.num_users() as u64,
            model.num_items() as u64,
        ],
    );
    w.f64_section(Tag::UMAT, model.u_matrix().as_slice());
    w.f64_section(Tag::VMAT, model.v_matrix().as_slice());
    w.begin(Tag::AMAT);
    for a in model.transforms() {
        w.push_f64s(a.as_slice());
    }
    w.end();
}

/// Atomically save `model` to `path`. Returns the file size in bytes.
pub fn save_model(
    model: &TsPprModel,
    extra_meta: &[(String, String)],
    path: impl AsRef<Path>,
) -> Result<u64, StoreError> {
    let bytes = encode_model(model, extra_meta);
    commit(path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// Load an owned model from `path`, rejecting anything malformed.
pub fn load_model(path: impl AsRef<Path>) -> Result<TsPprModel, StoreError> {
    Ok(ModelView::open(path)?.into_model())
}

/// Validated zero-copy view of a stored TS-PPR model: row accessors
/// borrow directly from the sections' buffers.
#[derive(Debug)]
pub struct ModelView {
    file: StoreFile,
    k: usize,
    f_dim: usize,
    users: usize,
    items: usize,
}

/// `(K, F, users, items)`.
type Dims = (usize, usize, usize, usize);

/// The `DIMS` quad of a model-shaped container, validated.
fn model_dims(file: &StoreFile) -> Result<Dims, StoreError> {
    let dims = file.u64_section(Tag::DIMS)?;
    let &[k, f_dim, users, items] = dims else {
        return Err(corrupt(
            Tag::DIMS.name(),
            format!("expected 4 dimensions, found {}", dims.len()),
        ));
    };
    let as_count = |v: u64, what: &str| -> Result<usize, StoreError> {
        usize::try_from(v)
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| schema(format!("implausible {what} count {v}")))
    };
    Ok((
        as_count(k, "K")?,
        as_count(f_dim, "F")?,
        as_count(users, "user")?,
        as_count(items, "item")?,
    ))
}

/// Check that a matrix section holds exactly `rows × cols` values.
pub(crate) fn check_matrix_len(
    file: &StoreFile,
    tag: Tag,
    rows: usize,
    cols: usize,
) -> Result<(), StoreError> {
    let want = rows
        .checked_mul(cols)
        .ok_or_else(|| schema("matrix dimensions overflow".to_string()))?;
    let got = file.f64_section(tag)?.len();
    if got != want {
        return Err(corrupt(
            tag.name(),
            format!("expected {want} values ({rows}×{cols}), found {got}"),
        ));
    }
    Ok(())
}

/// Validate the `DIMS`/`UMAT`/`VMAT`/`AMAT` sections every model-shaped
/// container (model file, batch checkpoint, stream checkpoint) carries.
fn check_model_sections(file: &StoreFile) -> Result<Dims, StoreError> {
    let (k, f_dim, users, items) = model_dims(file)?;
    check_matrix_len(file, Tag::UMAT, users, k)?;
    check_matrix_len(file, Tag::VMAT, items, k)?;
    check_matrix_len(file, Tag::AMAT, users * k, f_dim)?;
    Ok((k, f_dim, users, items))
}

/// An owned model out of checked sections, given its `U` and `V` values.
/// Every `A_u` is copied out of `AMAT`, one matrix per user.
fn model_from_sections(
    file: &StoreFile,
    (k, f_dim, users, items): Dims,
    u: Vec<f64>,
    v: Vec<f64>,
) -> TsPprModel {
    let a = file.f64_section(Tag::AMAT).expect("AMAT revalidation");
    let stride = k * f_dim;
    TsPprModel::from_parts(
        k,
        f_dim,
        DMatrix::from_vec(users, k, u),
        DMatrix::from_vec(items, k, v),
        (0..users)
            .map(|i| DMatrix::from_vec(k, f_dim, a[i * stride..(i + 1) * stride].to_vec()))
            .collect(),
    )
}

/// [`model_from_sections`] with copies of `UMAT` and `VMAT`.
fn copy_model_sections(file: &StoreFile, dims: Dims) -> TsPprModel {
    let section = |tag: Tag| file.f64_section(tag).expect("section revalidation");
    let (u, v) = (section(Tag::UMAT).to_vec(), section(Tag::VMAT).to_vec());
    model_from_sections(file, dims, u, v)
}

/// Validate and materialise the model sections of `file` — the reader
/// beside [`push_model_sections`], shared with both checkpoint decoders.
pub(crate) fn read_model_sections(file: &StoreFile) -> Result<TsPprModel, StoreError> {
    Ok(copy_model_sections(file, check_model_sections(file)?))
}

impl ModelView {
    /// Open and fully validate the model file at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<ModelView, StoreError> {
        ModelView::from_file(StoreFile::open(path)?)
    }

    /// Validate an in-memory container.
    pub fn from_bytes(bytes: &[u8]) -> Result<ModelView, StoreError> {
        ModelView::from_file(StoreFile::from_bytes(bytes)?)
    }

    /// Validate a parsed container as a TS-PPR model.
    pub fn from_file(file: StoreFile) -> Result<ModelView, StoreError> {
        file.expect_kind(KIND_TSPPR)?;
        let (k, f_dim, users, items) = check_model_sections(&file)?;
        Ok(ModelView {
            file,
            k,
            f_dim,
            users,
            items,
        })
    }

    /// Latent dimension `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Feature dimension `F`.
    pub fn f_dim(&self) -> usize {
        self.f_dim
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.users
    }

    /// Number of items.
    pub fn num_items(&self) -> usize {
        self.items
    }

    /// Metadata pairs stored alongside the parameters.
    pub fn meta(&self) -> Vec<(String, String)> {
        // Validated during `from_file`; cannot fail now.
        self.file.meta().expect("META revalidation")
    }

    /// One metadata value.
    pub fn meta_value(&self, key: &str) -> Option<String> {
        self.file.meta_value(key).expect("META revalidation")
    }

    /// The training-config fingerprint recorded at save time, if the
    /// publisher wrote one (and it parses as 16 hex digits).
    pub fn fingerprint(&self) -> Option<u64> {
        let hex = self.meta_value(META_FINGERPRINT)?;
        u64::from_str_radix(hex.trim(), 16).ok()
    }

    /// User `u`'s latent factor, borrowed from its section's buffer.
    pub fn user_row(&self, user: usize) -> &[f64] {
        assert!(user < self.users, "user {user} out of range");
        let m = self.file.f64_section(Tag::UMAT).expect("UMAT revalidation");
        &m[user * self.k..(user + 1) * self.k]
    }

    /// Item `v`'s latent factor, borrowed from its section's buffer.
    pub fn item_row(&self, item: usize) -> &[f64] {
        assert!(item < self.items, "item {item} out of range");
        let m = self.file.f64_section(Tag::VMAT).expect("VMAT revalidation");
        &m[item * self.k..(item + 1) * self.k]
    }

    /// User `u`'s transform `A_u` as one row-major `K × F` slice.
    pub fn transform(&self, user: usize) -> &[f64] {
        assert!(user < self.users, "user {user} out of range");
        let m = self.file.f64_section(Tag::AMAT).expect("AMAT revalidation");
        let stride = self.k * self.f_dim;
        &m[user * stride..(user + 1) * stride]
    }

    fn dims(&self) -> Dims {
        (self.k, self.f_dim, self.users, self.items)
    }

    /// Materialise an owned [`TsPprModel`] and keep the view (one copy of
    /// each section).
    pub fn to_model(&self) -> TsPprModel {
        copy_model_sections(&self.file, self.dims())
    }

    /// Turn the view into an owned [`TsPprModel`]: `U` and `V` take over
    /// the view's buffers, and only the `A_u` are copied. Read anything
    /// else the view holds, such as [`Self::fingerprint`], first.
    pub fn into_model(mut self) -> TsPprModel {
        let u = self.file.take_f64_section(Tag::UMAT);
        let v = self.file.take_f64_section(Tag::VMAT);
        let (u, v) = (u.expect("UMAT revalidation"), v.expect("VMAT revalidation"));
        model_from_sections(&self.file, self.dims(), u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rrc_sequence::{ItemId, UserId};

    fn model() -> TsPprModel {
        TsPprModel::init(&mut StdRng::seed_from_u64(7), 4, 6, 5, 3, 0.05, 0.01)
    }

    #[test]
    fn encode_load_round_trip_is_exact() {
        let m = model();
        let bytes = encode_model(&m, &[("seed".into(), "7".into())]);
        let view = ModelView::from_bytes(&bytes).unwrap();
        assert_eq!(
            (view.k(), view.f_dim(), view.num_users(), view.num_items()),
            (5, 3, 4, 6)
        );
        assert_eq!(view.meta_value("seed").as_deref(), Some("7"));
        assert_eq!(view.user_row(2), m.user_factor(UserId(2)));
        assert_eq!(view.item_row(5), m.item_factor(ItemId(5)));
        assert_eq!(view.transform(3), m.transform(UserId(3)).as_slice());
        assert_eq!(view.to_model(), m);
    }

    #[test]
    fn file_round_trip_and_deterministic_bytes() {
        let dir = std::env::temp_dir().join(format!("rrc_store_model_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.rrcm");
        let m = model();
        let size = save_model(&m, &[], &path).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), size);
        assert_eq!(load_model(&path).unwrap(), m);
        // Same model + same metadata ⇒ byte-identical file (no timestamps
        // or other nondeterminism) — the property the resume smoke leans on.
        let again = dir.join("m2.rrcm");
        save_model(&m, &[], &again).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&again).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_model_equals_the_copying_view_bit_for_bit() {
        let dir = std::env::temp_dir().join(format!("rrc_store_into_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.rrcm");
        // Values `==` cannot tell apart: a negative zero and a NaN payload.
        let (k, f_dim, mut u, mut v, a) = model().into_parts();
        v.row_mut(1)[0] = -0.0;
        u.row_mut(0)[1] = f64::from_bits(0x7ff8_0000_0000_0001);
        let m = TsPprModel::from_parts(k, f_dim, u, v, a);
        save_model(&m, &[], &path).unwrap();
        let bits = |m: &TsPprModel| -> Vec<u64> {
            let transforms = m.transforms().iter().flat_map(|a| a.as_slice());
            m.u_matrix()
                .as_slice()
                .iter()
                .chain(m.v_matrix().as_slice())
                .chain(transforms)
                .map(|x| x.to_bits())
                .collect()
        };
        let moved = load_model(&path).unwrap();
        let copied = ModelView::open(&path).unwrap().to_model();
        assert_eq!(bits(&moved), bits(&copied));
        assert_eq!(bits(&moved), bits(&m));
        let shape = |m: &TsPprModel| (m.k(), m.f_dim(), m.num_users(), m.num_items());
        assert_eq!(shape(&moved), shape(&copied));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_meta_round_trips_and_rejects_junk() {
        let m = model();
        let bytes = encode_model(
            &m,
            &[(META_FINGERPRINT.into(), format!("{:016x}", 0xdead_beef_u64))],
        );
        let view = ModelView::from_bytes(&bytes).unwrap();
        assert_eq!(view.fingerprint(), Some(0xdead_beef));
        // Absent or unparsable fingerprints read as None, never an error.
        let plain = ModelView::from_bytes(&encode_model(&m, &[])).unwrap();
        assert_eq!(plain.fingerprint(), None);
        let junk = ModelView::from_bytes(&encode_model(
            &m,
            &[(META_FINGERPRINT.into(), "not-hex".into())],
        ))
        .unwrap();
        assert_eq!(junk.fingerprint(), None);
    }

    #[test]
    fn wrong_kind_is_a_schema_error() {
        let m = model();
        let mut w = Writer::new();
        w.section(
            Tag::META,
            &encode_meta(&[("kind".into(), "something-else".into())]),
        );
        push_model_sections(&mut w, &m);
        let err = ModelView::from_bytes(&w.finish()).unwrap_err();
        assert!(matches!(err, StoreError::Schema { .. }), "{err}");
    }

    #[test]
    fn missing_section_is_typed() {
        let mut w = Writer::new();
        w.section(
            Tag::META,
            &encode_meta(&[("kind".into(), KIND_TSPPR.into())]),
        );
        w.u64_section(Tag::DIMS, &[2, 2, 2, 2]);
        // no UMAT/VMAT/AMAT
        let err = ModelView::from_bytes(&w.finish()).unwrap_err();
        assert!(matches!(err, StoreError::Missing { .. }), "{err}");
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let m = model();
        // DIMS claims 3 users but the matrices hold 4 — must fail on the
        // length check (fresh file so every CRC is still valid).
        let mut w = Writer::new();
        w.section(
            Tag::META,
            &encode_meta(&[("kind".into(), KIND_TSPPR.into())]),
        );
        w.u64_section(Tag::DIMS, &[5, 3, 3, 6]);
        w.f64_section(Tag::UMAT, m.u_matrix().as_slice());
        w.f64_section(Tag::VMAT, m.v_matrix().as_slice());
        w.begin(Tag::AMAT);
        for a in m.transforms() {
            w.push_f64s(a.as_slice());
        }
        w.end();
        let err = ModelView::from_bytes(&w.finish()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn zero_dimension_is_a_schema_error() {
        let mut w = Writer::new();
        w.section(
            Tag::META,
            &encode_meta(&[("kind".into(), KIND_TSPPR.into())]),
        );
        w.u64_section(Tag::DIMS, &[0, 1, 1, 1]);
        w.f64_section(Tag::UMAT, &[]);
        w.f64_section(Tag::VMAT, &[]);
        w.f64_section(Tag::AMAT, &[]);
        let err = ModelView::from_bytes(&w.finish()).unwrap_err();
        assert!(matches!(err, StoreError::Schema { .. }), "{err}");
    }
}

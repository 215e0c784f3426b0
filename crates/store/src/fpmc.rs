//! FPMC baseline save/load: the four factor matrices of the
//! pairwise-interaction model in one container (`kind = "fpmc-model"`,
//! `DIMS = [K, users, items, 0]`, sections `FPUI`/`FPIU`/`FPIL`/`FPLI`).

use crate::error::{corrupt, schema, StoreError};
use crate::format::{commit, encode_meta, StoreFile, Tag, Writer};
use crate::model::check_matrix_len;
use rrc_baselines::FpmcModel;
use rrc_linalg::DMatrix;
use std::path::Path;

/// `META` kind for FPMC model files.
pub const KIND_FPMC: &str = "fpmc-model";

/// Serialize an FPMC model into container bytes.
pub fn encode_fpmc(model: &FpmcModel, extra_meta: &[(String, String)]) -> Vec<u8> {
    let mut meta = vec![("kind".to_string(), KIND_FPMC.to_string())];
    meta.extend(extra_meta.iter().cloned());
    let (ui, iu, il, li) = model.parts();
    let mut w = Writer::new();
    w.section(Tag::META, &encode_meta(&meta));
    w.u64_section(
        Tag::DIMS,
        &[
            model.k() as u64,
            model.num_users() as u64,
            model.num_items() as u64,
            0,
        ],
    );
    for (tag, m) in [
        (Tag::FPUI, ui),
        (Tag::FPIU, iu),
        (Tag::FPIL, il),
        (Tag::FPLI, li),
    ] {
        w.f64_section(tag, m.as_slice());
    }
    w.finish()
}

/// Atomically save an FPMC model. Returns the file size in bytes.
pub fn save_fpmc(
    model: &FpmcModel,
    extra_meta: &[(String, String)],
    path: impl AsRef<Path>,
) -> Result<u64, StoreError> {
    let bytes = encode_fpmc(model, extra_meta);
    commit(path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// Load and fully validate an FPMC model.
pub fn load_fpmc(path: impl AsRef<Path>) -> Result<FpmcModel, StoreError> {
    decode_fpmc(&StoreFile::open(path)?)
}

/// Decode a parsed container as an FPMC model.
pub fn decode_fpmc(file: &StoreFile) -> Result<FpmcModel, StoreError> {
    file.expect_kind(KIND_FPMC)?;
    let dims = file.u64_section(Tag::DIMS)?;
    let &[k, users, items, _reserved] = dims else {
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
    let (k, users, items) = (
        as_count(k, "K")?,
        as_count(users, "user")?,
        as_count(items, "item")?,
    );
    check_matrix_len(file, Tag::FPUI, users, k)?;
    for tag in [Tag::FPIU, Tag::FPIL, Tag::FPLI] {
        check_matrix_len(file, tag, items, k)?;
    }
    let mat = |tag: Tag, rows: usize| -> DMatrix {
        DMatrix::from_vec(
            rows,
            k,
            file.f64_section(tag).expect("revalidation").to_vec(),
        )
    };
    Ok(FpmcModel::from_parts(
        k,
        mat(Tag::FPUI, users),
        mat(Tag::FPIU, items),
        mat(Tag::FPIL, items),
        mat(Tag::FPLI, items),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> FpmcModel {
        FpmcModel::init(&mut StdRng::seed_from_u64(11), 5, 7, 4)
    }

    #[test]
    fn round_trip_is_exact() {
        let m = model();
        let dir = std::env::temp_dir().join(format!("rrc_store_fpmc_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fpmc.rrcm");
        save_fpmc(&m, &[("k".into(), "4".into())], &path).unwrap();
        assert_eq!(load_fpmc(&path).unwrap(), m);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tsppr_file_is_rejected_as_fpmc() {
        let ts = rrc_core::TsPprModel::init(&mut StdRng::seed_from_u64(3), 3, 4, 2, 2, 0.1, 0.1);
        let bytes = crate::model::encode_model(&ts, &[]);
        let err = decode_fpmc(&StoreFile::from_bytes(&bytes).unwrap()).unwrap_err();
        assert!(matches!(err, StoreError::Schema { .. }), "{err}");
    }
}

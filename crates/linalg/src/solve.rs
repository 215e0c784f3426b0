//! Small dense linear solvers: LU with partial pivoting and Cholesky.
//!
//! The Cox proportional-hazards trainer (`rrc-survival`) takes
//! Newton–Raphson steps `β ← β + H⁻¹ g`, and STREC's IRLS option solves a
//! weighted normal system; both systems are tiny (F ≤ a dozen covariates),
//! so an O(n³) direct solve is the right tool.

use crate::DMatrix;

/// Errors from the direct solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The matrix is singular (a pivot underflowed) — the system has no
    /// unique solution.
    Singular,
    /// The matrix is not positive definite (Cholesky only).
    NotPositiveDefinite,
    /// Shape mismatch between the matrix and right-hand side.
    ShapeMismatch,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Singular => write!(f, "matrix is singular"),
            SolveError::NotPositiveDefinite => write!(f, "matrix is not positive definite"),
            SolveError::ShapeMismatch => write!(f, "matrix/rhs shape mismatch"),
        }
    }
}

impl std::error::Error for SolveError {}

const PIVOT_EPS: f64 = 1e-12;

/// Solve `A x = b` by LU decomposition with partial pivoting.
///
/// `a` must be square; `b.len()` must equal its order. Neither input is
/// modified.
pub fn lu_solve(a: &DMatrix, b: &[f64]) -> Result<Vec<f64>, SolveError> {
    let n = a.rows();
    if a.cols() != n || b.len() != n {
        return Err(SolveError::ShapeMismatch);
    }
    // Work on copies: `lu` holds the factorisation in place, `x` the
    // permuted right-hand side.
    let mut lu = a.clone();
    let mut x = b.to_vec();

    for k in 0..n {
        // Partial pivot: the row with the largest |entry| in column k.
        let mut pivot_row = k;
        let mut pivot_val = lu[(k, k)].abs();
        for i in (k + 1)..n {
            let v = lu[(i, k)].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = i;
            }
        }
        if pivot_val < PIVOT_EPS {
            return Err(SolveError::Singular);
        }
        if pivot_row != k {
            for j in 0..n {
                let tmp = lu[(k, j)];
                lu[(k, j)] = lu[(pivot_row, j)];
                lu[(pivot_row, j)] = tmp;
            }
            x.swap(k, pivot_row);
        }
        let pivot = lu[(k, k)];
        for i in (k + 1)..n {
            let factor = lu[(i, k)] / pivot;
            lu[(i, k)] = factor;
            for j in (k + 1)..n {
                let delta = factor * lu[(k, j)];
                lu[(i, j)] -= delta;
            }
            x[i] -= factor * x[k];
        }
    }
    // Back substitution on the upper triangle.
    for k in (0..n).rev() {
        for j in (k + 1)..n {
            x[k] -= lu[(k, j)] * x[j];
        }
        x[k] /= lu[(k, k)];
    }
    Ok(x)
}

/// Solve `A x = b` for a symmetric positive-definite `A` by Cholesky
/// (`A = L Lᵀ`). Roughly twice as fast as LU and fails loudly when a Newton
/// Hessian loses positive-definiteness, which the Cox trainer uses as a
/// signal to fall back to gradient steps.
pub fn cholesky_solve(a: &DMatrix, b: &[f64]) -> Result<Vec<f64>, SolveError> {
    let n = a.rows();
    if a.cols() != n || b.len() != n {
        return Err(SolveError::ShapeMismatch);
    }
    // Factorise into the lower triangle of a working copy.
    let mut l = DMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(SolveError::NotPositiveDefinite);
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    // Forward solve L y = b.
    let mut y = b.to_vec();
    for i in 0..n {
        for k in 0..i {
            y[i] -= l[(i, k)] * y[k];
        }
        y[i] /= l[(i, i)];
    }
    // Back solve Lᵀ x = y.
    for i in (0..n).rev() {
        for k in (i + 1)..n {
            y[i] -= l[(k, i)] * y[k];
        }
        y[i] /= l[(i, i)];
    }
    Ok(y)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &DMatrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.matvec(x);
        ax.iter()
            .zip(b.iter())
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn lu_solves_known_system() {
        let a = DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let b = [3.0, 5.0];
        let x = lu_solve(&a, &b).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn lu_handles_pivoting() {
        // Zero in the (0,0) position forces a row swap.
        let a = DMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = lu_solve(&a, &[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn lu_detects_singularity() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(lu_solve(&a, &[1.0, 2.0]), Err(SolveError::Singular));
    }

    #[test]
    fn lu_shape_mismatch() {
        let a = DMatrix::zeros(2, 3);
        assert_eq!(lu_solve(&a, &[1.0, 2.0]), Err(SolveError::ShapeMismatch));
        let sq = DMatrix::identity(2);
        assert_eq!(lu_solve(&sq, &[1.0]), Err(SolveError::ShapeMismatch));
    }

    #[test]
    fn cholesky_matches_lu_on_spd_system() {
        let a = DMatrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 5.0]]);
        let b = [1.0, -2.0, 0.5];
        let x1 = lu_solve(&a, &b).unwrap();
        let x2 = cholesky_solve(&a, &b).unwrap();
        for (p, q) in x1.iter().zip(x2.iter()) {
            assert!((p - q).abs() < 1e-10);
        }
        assert!(residual(&a, &x2, &b) < 1e-10);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert_eq!(
            cholesky_solve(&a, &[1.0, 1.0]),
            Err(SolveError::NotPositiveDefinite)
        );
    }

    #[test]
    fn larger_random_like_system_round_trips() {
        // A diagonally dominant 6x6 system (guaranteed nonsingular & SPD-ish).
        let n = 6;
        let mut a = DMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = if i == j {
                    10.0 + i as f64
                } else {
                    1.0 / (1.0 + (i + j) as f64)
                };
            }
        }
        // Symmetrise for Cholesky.
        let at = a.transpose();
        let mut sym = DMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                sym[(i, j)] = 0.5 * (a[(i, j)] + at[(i, j)]);
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x = cholesky_solve(&sym, &b).unwrap();
        assert!(residual(&sym, &x, &b) < 1e-9);
        let x2 = lu_solve(&sym, &b).unwrap();
        assert!(residual(&sym, &x2, &b) < 1e-9);
    }
}

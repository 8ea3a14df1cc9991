#include "qsim/density_matrix.hpp"

#include <cmath>

#include "common/error.hpp"

namespace dqcsim::qsim {
namespace {

// At 14 qubits dim = 2^14 = 16384 and dim^2 = 2.7e8 entries * 16 B ~= 4.3 GB,
// too big. The practical guard therefore limits to 12 qubits (dim^2 = 1.6e7,
// ~270 MB peak with channel copies). Teleportation gadgets use at most 6.
constexpr int kMaxQubits = 14;
constexpr int kPracticalMaxQubits = 12;

}  // namespace

DensityMatrix::DensityMatrix(int num_qubits) {
  DQCSIM_EXPECTS_MSG(num_qubits >= 1 && num_qubits <= kPracticalMaxQubits,
                     "density matrix limited to 12 qubits");
  static_assert(kPracticalMaxQubits <= kMaxQubits);
  num_qubits_ = num_qubits;
  dim_ = std::size_t{1} << num_qubits;
  data_.assign(dim_ * dim_, Complex{0.0, 0.0});
  data_[0] = Complex{1.0, 0.0};
}

DensityMatrix::DensityMatrix(const std::vector<Complex>& amplitudes) {
  std::size_t d = amplitudes.size();
  DQCSIM_EXPECTS_MSG(d >= 2 && (d & (d - 1)) == 0,
                     "amplitude count must be a power of two");
  int n = 0;
  while ((std::size_t{1} << n) < d) ++n;
  DQCSIM_EXPECTS(n <= kPracticalMaxQubits);

  double norm2 = 0.0;
  for (const Complex& a : amplitudes) norm2 += std::norm(a);
  DQCSIM_EXPECTS_MSG(norm2 > 0.0, "state vector must be nonzero");
  const double inv_norm = 1.0 / std::sqrt(norm2);

  num_qubits_ = n;
  dim_ = d;
  data_.resize(dim_ * dim_);
  for (std::size_t r = 0; r < dim_; ++r) {
    for (std::size_t c = 0; c < dim_; ++c) {
      data_[idx(r, c)] =
          amplitudes[r] * inv_norm * std::conj(amplitudes[c]) * inv_norm;
    }
  }
}

Complex DensityMatrix::element(std::size_t r, std::size_t c) const {
  DQCSIM_EXPECTS(r < dim_ && c < dim_);
  return data_[idx(r, c)];
}

void DensityMatrix::apply_1q(const Mat2& u, int q) {
  DQCSIM_EXPECTS(q >= 0 && q < num_qubits_);
  const std::size_t stride = std::size_t{1} << q;
  // Left multiply by U (x) I: for each row pair walk both rows contiguously
  // (the row-major layout makes the inner loop a pair of streaming sweeps).
  for (std::size_t rb = 0; rb < dim_; rb += 2 * stride) {
    for (std::size_t r = rb; r < rb + stride; ++r) {
      Complex* const row0 = data_.data() + idx(r, 0);
      Complex* const row1 = data_.data() + idx(r + stride, 0);
      for (std::size_t c = 0; c < dim_; ++c) {
        const Complex a = row0[c];
        const Complex b = row1[c];
        row0[c] = u[0] * a + u[1] * b;
        row1[c] = u[2] * a + u[3] * b;
      }
    }
  }
  // Right multiply by U^dag: column pairs live within each row, so the
  // whole update streams one row at a time.
  for (std::size_t r = 0; r < dim_; ++r) {
    Complex* const row = data_.data() + idx(r, 0);
    for (std::size_t cb = 0; cb < dim_; cb += 2 * stride) {
      for (std::size_t c = cb; c < cb + stride; ++c) {
        const Complex a = row[c];
        const Complex b = row[c + stride];
        row[c] = a * std::conj(u[0]) + b * std::conj(u[1]);
        row[c + stride] = a * std::conj(u[2]) + b * std::conj(u[3]);
      }
    }
  }
}

void DensityMatrix::apply_2q(const Mat4& u, int q_high, int q_low) {
  DQCSIM_EXPECTS(q_high >= 0 && q_high < num_qubits_);
  DQCSIM_EXPECTS(q_low >= 0 && q_low < num_qubits_);
  DQCSIM_EXPECTS(q_high != q_low);
  const std::size_t mh = std::size_t{1} << q_high;
  const std::size_t ml = std::size_t{1} << q_low;
  const std::size_t lo = mh < ml ? mh : ml;
  const std::size_t hi = mh < ml ? ml : mh;
  const std::size_t groups = dim_ >> 2;

  // Branch-free enumeration of index quadruples: expand a dense counter by
  // inserting zero bits at both operand positions (lowest first).
  const auto expand = [lo, hi](std::size_t k) {
    return insert_zero_bit(insert_zero_bit(k, lo), hi);
  };

  // Left multiply by U (x) I: each row quadruple streams over all columns.
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t r = expand(g);
    Complex* const row[4] = {
        data_.data() + idx(r, 0), data_.data() + idx(r | ml, 0),
        data_.data() + idx(r | mh, 0), data_.data() + idx(r | mh | ml, 0)};
    for (std::size_t c = 0; c < dim_; ++c) {
      const Complex old[4] = {row[0][c], row[1][c], row[2][c], row[3][c]};
      for (std::size_t s = 0; s < 4; ++s) {
        Complex acc{0.0, 0.0};
        for (std::size_t t = 0; t < 4; ++t) {
          acc += u[s * 4 + t] * old[t];
        }
        row[s][c] = acc;
      }
    }
  }
  // Right multiply by U^dag: column quadruples live within each row.
  for (std::size_t r = 0; r < dim_; ++r) {
    Complex* const row = data_.data() + idx(r, 0);
    for (std::size_t g = 0; g < groups; ++g) {
      const std::size_t c = expand(g);
      const std::size_t col[4] = {c, c | ml, c | mh, c | mh | ml};
      const Complex old[4] = {row[col[0]], row[col[1]], row[col[2]],
                              row[col[3]]};
      for (std::size_t s = 0; s < 4; ++s) {
        Complex acc{0.0, 0.0};
        for (std::size_t t = 0; t < 4; ++t) {
          acc += old[t] * std::conj(u[s * 4 + t]);
        }
        row[col[s]] = acc;
      }
    }
  }
}

void DensityMatrix::apply_gate(const Gate& g) {
  if (g.arity() == 1) {
    apply_1q(gate_unitary_1q(g.kind, g.param), g.q0());
  } else {
    apply_2q(gate_unitary_2q(g.kind, g.param), g.q0(), g.q1());
  }
}

void DensityMatrix::pauli_channel(int q, double px, double py, double pz) {
  DQCSIM_EXPECTS(q >= 0 && q < num_qubits_);
  DQCSIM_EXPECTS(px >= 0.0 && py >= 0.0 && pz >= 0.0);
  const double total = px + py + pz;
  DQCSIM_EXPECTS_MSG(total <= 1.0 + 1e-12, "Pauli probabilities exceed 1");
  if (total <= 0.0) return;

  const std::size_t mask = std::size_t{1} << q;
  std::vector<Complex> out(data_.size());
  for (std::size_t r = 0; r < dim_; ++r) {
    for (std::size_t c = 0; c < dim_; ++c) {
      const std::size_t rf = r ^ mask;
      const std::size_t cf = c ^ mask;
      const double sr = (r & mask) ? -1.0 : 1.0;  // Z sign on row
      const double sc = (c & mask) ? -1.0 : 1.0;  // Z sign on column
      // X rho X: flips both indices. Z rho Z: sign sr*sc.
      // Y = iXZ: flips both indices with sign (-1)^{flip parity}:
      // (Y rho Y)[r][c] = sr' * sc' * rho[rf][cf] where the signs come from
      // Y|0>=i|1>, Y|1>=-i|0>; combined phase = (r?-i:i)(c?i:-i) -> product
      // simplifies to sr*sc with an extra (-1) when r,c bits differ... use
      // exact: phase(r) = (r&mask)? -i : i ; element = phase(r)*conj(phase(c))
      const Complex phase_r = (r & mask) ? Complex{0, -1} : Complex{0, 1};
      const Complex phase_c = (c & mask) ? Complex{0, -1} : Complex{0, 1};
      const Complex y_term =
          phase_r * std::conj(phase_c) * data_[idx(rf, cf)];
      out[idx(r, c)] = (1.0 - total) * data_[idx(r, c)] +
                       px * data_[idx(rf, cf)] + py * y_term +
                       pz * sr * sc * data_[idx(r, c)];
    }
  }
  data_ = std::move(out);
}

void DensityMatrix::depolarize_1q(int q, double p) {
  DQCSIM_EXPECTS(p >= 0.0 && p <= 1.0);
  // (1-p) rho + p I/2 (x) tr_q rho == Pauli channel with px=py=pz=p/4.
  pauli_channel(q, p / 4.0, p / 4.0, p / 4.0);
}

void DensityMatrix::depolarize_2q(int q0, int q1, double p) {
  DQCSIM_EXPECTS(q0 >= 0 && q0 < num_qubits_);
  DQCSIM_EXPECTS(q1 >= 0 && q1 < num_qubits_);
  DQCSIM_EXPECTS(q0 != q1);
  DQCSIM_EXPECTS(p >= 0.0 && p <= 1.0);
  if (p <= 0.0) return;

  const std::size_t m0 = std::size_t{1} << q0;
  const std::size_t m1 = std::size_t{1} << q1;
  const std::size_t pair_mask = m0 | m1;

  std::vector<Complex> out(data_.size());
  for (std::size_t r = 0; r < dim_; ++r) {
    for (std::size_t c = 0; c < dim_; ++c) {
      Complex mixed{0.0, 0.0};
      if ((r & pair_mask) == (c & pair_mask)) {
        // (I/4 (x) tr_pair rho)[r][c]: average over the pair subspace.
        const std::size_t rb = r & ~pair_mask;
        const std::size_t cb = c & ~pair_mask;
        for (int s = 0; s < 4; ++s) {
          std::size_t sub = 0;
          if (s & 1) sub |= m0;
          if (s & 2) sub |= m1;
          mixed += data_[idx(rb | sub, cb | sub)];
        }
        mixed *= 0.25;
      }
      out[idx(r, c)] = (1.0 - p) * data_[idx(r, c)] + p * mixed;
    }
  }
  data_ = std::move(out);
}

double DensityMatrix::prob_one(int q) const {
  DQCSIM_EXPECTS(q >= 0 && q < num_qubits_);
  const std::size_t mask = std::size_t{1} << q;
  double p = 0.0;
  for (std::size_t r = 0; r < dim_; ++r) {
    if (r & mask) p += data_[idx(r, r)].real();
  }
  return p;
}

DensityMatrix::MeasurementBranches DensityMatrix::measure_branches(
    int q) const {
  DQCSIM_EXPECTS(q >= 0 && q < num_qubits_);
  const std::size_t mask = std::size_t{1} << q;

  MeasurementBranches branches;
  branches.state.assign(2, *this);
  for (int outcome = 0; outcome < 2; ++outcome) {
    DensityMatrix& s = branches.state[static_cast<std::size_t>(outcome)];
    const bool keep_set = (outcome == 1);
    double prob = 0.0;
    for (std::size_t r = 0; r < dim_; ++r) {
      const bool r_set = (r & mask) != 0;
      for (std::size_t c = 0; c < dim_; ++c) {
        const bool c_set = (c & mask) != 0;
        if (r_set != keep_set || c_set != keep_set) {
          s.data_[idx(r, c)] = Complex{0.0, 0.0};
        }
      }
      if (r_set == keep_set) prob += data_[idx(r, r)].real();
    }
    branches.prob[outcome] = prob;
    if (prob > 1e-15) {
      const double inv = 1.0 / prob;
      for (auto& v : s.data_) v *= inv;
    } else {
      for (auto& v : s.data_) v = Complex{0.0, 0.0};
    }
  }
  return branches;
}

void DensityMatrix::dephase(int q) {
  DQCSIM_EXPECTS(q >= 0 && q < num_qubits_);
  const std::size_t mask = std::size_t{1} << q;
  for (std::size_t r = 0; r < dim_; ++r) {
    for (std::size_t c = 0; c < dim_; ++c) {
      if ((r & mask) != (c & mask)) data_[idx(r, c)] = Complex{0.0, 0.0};
    }
  }
}

DensityMatrix DensityMatrix::partial_trace(int q) const {
  DQCSIM_EXPECTS(q >= 0 && q < num_qubits_);
  DQCSIM_EXPECTS_MSG(num_qubits_ >= 2, "cannot trace out the last qubit");
  const std::size_t mask = std::size_t{1} << q;
  const std::size_t low = mask - 1;

  DensityMatrix out;
  out.num_qubits_ = num_qubits_ - 1;
  out.dim_ = dim_ >> 1;
  out.data_.assign(out.dim_ * out.dim_, Complex{0.0, 0.0});

  const auto expand = [&](std::size_t i, std::size_t bit) {
    return ((i & ~low) << 1) | (bit ? mask : 0) | (i & low);
  };
  for (std::size_t r = 0; r < out.dim_; ++r) {
    for (std::size_t c = 0; c < out.dim_; ++c) {
      out.data_[r * out.dim_ + c] =
          data_[idx(expand(r, 0), expand(c, 0))] +
          data_[idx(expand(r, 1), expand(c, 1))];
    }
  }
  return out;
}

double DensityMatrix::trace() const {
  double t = 0.0;
  for (std::size_t r = 0; r < dim_; ++r) t += data_[idx(r, r)].real();
  return t;
}

double DensityMatrix::purity() const {
  // tr(rho^2) = sum_{r,c} rho[r][c] * rho[c][r] = sum |rho[r][c]|^2 for
  // Hermitian rho.
  double p = 0.0;
  for (const Complex& v : data_) p += std::norm(v);
  return p;
}

double DensityMatrix::fidelity_with_pure(
    const std::vector<Complex>& psi) const {
  DQCSIM_EXPECTS(psi.size() == dim_);
  Complex f{0.0, 0.0};
  for (std::size_t r = 0; r < dim_; ++r) {
    for (std::size_t c = 0; c < dim_; ++c) {
      f += std::conj(psi[r]) * data_[idx(r, c)] * psi[c];
    }
  }
  return f.real();
}

DensityMatrix DensityMatrix::tensor(const DensityMatrix& other) const {
  DQCSIM_EXPECTS(num_qubits_ + other.num_qubits_ <= kPracticalMaxQubits);
  DensityMatrix out;
  out.num_qubits_ = num_qubits_ + other.num_qubits_;
  out.dim_ = dim_ * other.dim_;
  out.data_.resize(out.dim_ * out.dim_);
  for (std::size_t rh = 0; rh < other.dim_; ++rh) {
    for (std::size_t rl = 0; rl < dim_; ++rl) {
      for (std::size_t ch = 0; ch < other.dim_; ++ch) {
        for (std::size_t cl = 0; cl < dim_; ++cl) {
          out.data_[(rh * dim_ + rl) * out.dim_ + (ch * dim_ + cl)] =
              data_[idx(rl, cl)] * other.data_[other.idx(rh, ch)];
        }
      }
    }
  }
  return out;
}

bool DensityMatrix::is_hermitian(double tol) const {
  for (std::size_t r = 0; r < dim_; ++r) {
    for (std::size_t c = r; c < dim_; ++c) {
      if (std::abs(data_[idx(r, c)] - std::conj(data_[idx(c, r)])) > tol) {
        return false;
      }
    }
  }
  return true;
}

DensityMatrix DensityMatrix::mix(const DensityMatrix& a, double wa,
                                 const DensityMatrix& b, double wb) {
  DQCSIM_EXPECTS(a.dim_ == b.dim_);
  DQCSIM_EXPECTS(wa >= 0.0 && wb >= 0.0);
  DensityMatrix out = a;
  for (std::size_t i = 0; i < out.data_.size(); ++i) {
    out.data_[i] = wa * a.data_[i] + wb * b.data_[i];
  }
  return out;
}

DensityMatrix DensityMatrix::bell_phi_plus() {
  const double s = 1.0 / std::sqrt(2.0);
  return DensityMatrix(
      std::vector<Complex>{{s, 0.0}, {0, 0}, {0, 0}, {s, 0.0}});
}

DensityMatrix DensityMatrix::werner(double fidelity) {
  DQCSIM_EXPECTS_MSG(fidelity >= 0.25 && fidelity <= 1.0,
                     "Werner fidelity must lie in [0.25, 1]");
  const double w = (4.0 * fidelity - 1.0) / 3.0;
  DensityMatrix rho = bell_phi_plus();
  for (std::size_t r = 0; r < rho.dim_; ++r) {
    for (std::size_t c = 0; c < rho.dim_; ++c) {
      Complex v = rho.data_[rho.idx(r, c)] * w;
      if (r == c) v += (1.0 - w) * 0.25;
      rho.data_[rho.idx(r, c)] = v;
    }
  }
  return rho;
}

}  // namespace dqcsim::qsim

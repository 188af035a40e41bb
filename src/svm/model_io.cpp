#include "svm/model_io.h"

#include <cstring>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/strings.h"

namespace wtp::svm {

namespace {

constexpr const char* kMagic = "wtp_svm_model v1";

void write_kernel(std::ostream& out, const KernelParams& kernel) {
  // Only the four math fields are serialized.  KernelParams::transform is
  // an execution hint (which precision tier scores the model), not part of
  // the kernel's identity — a loaded model always starts at kDefault and
  // follows the loading process's transform mode.
  out << "kernel " << to_string(kernel.type) << '\n';
  // max_digits10 round-trips doubles exactly through text.
  out.precision(17);
  out << "gamma " << kernel.gamma << '\n';
  out << "coef0 " << kernel.coef0 << '\n';
  out << "degree " << kernel.degree << '\n';
}

void write_svs(std::ostream& out, const util::FeatureMatrix& svs,
               const std::vector<double>& coefficients) {
  out << "nr_sv " << svs.rows() << '\n';
  out << "SV\n";
  for (std::size_t i = 0; i < svs.rows(); ++i) {
    out << coefficients[i];
    const auto indices = svs.row_indices(i);
    const auto values = svs.row_values(i);
    for (std::size_t k = 0; k < indices.size(); ++k) {
      out << ' ' << indices[k] << ':' << values[k];
    }
    out << '\n';
  }
}

struct Header {
  std::string type;
  KernelParams kernel;
  std::map<std::string, double> scalars;
  std::size_t nr_sv = 0;
};

Header read_header(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || util::trim(line) != kMagic) {
    throw std::runtime_error{"load_model: missing magic line '" + std::string{kMagic} + "'"};
  }
  Header header;
  while (std::getline(in, line)) {
    const std::string_view trimmed = util::trim(line);
    if (trimmed == "SV") return header;
    std::istringstream fields{std::string{trimmed}};
    std::string key;
    fields >> key;
    if (key == "type") {
      fields >> header.type;
    } else if (key == "kernel") {
      std::string name;
      fields >> name;
      header.kernel.type = parse_kernel_type(name);
    } else if (key == "gamma") {
      fields >> header.kernel.gamma;
    } else if (key == "coef0") {
      fields >> header.kernel.coef0;
    } else if (key == "degree") {
      fields >> header.kernel.degree;
    } else if (key == "nr_sv") {
      fields >> header.nr_sv;
    } else {
      double value = 0.0;
      fields >> value;
      header.scalars[key] = value;
    }
    if (fields.fail()) {
      throw std::runtime_error{"load_model: malformed header line '" + line + "'"};
    }
  }
  throw std::runtime_error{"load_model: missing SV section"};
}

void read_svs(std::istream& in, std::size_t count,
              std::vector<util::SparseVector>& svs, std::vector<double>& coefficients) {
  std::string line;
  for (std::size_t i = 0; i < count; ++i) {
    if (!std::getline(in, line)) {
      throw std::runtime_error{"load_model: expected " + std::to_string(count) +
                               " SV lines, got " + std::to_string(i)};
    }
    std::istringstream fields{line};
    double alpha = 0.0;
    if (!(fields >> alpha)) {
      throw std::runtime_error{"load_model: malformed SV line '" + line + "'"};
    }
    std::vector<util::SparseVector::Entry> entries;
    std::string pair;
    while (fields >> pair) {
      const std::size_t colon = pair.find(':');
      if (colon == std::string::npos) {
        throw std::runtime_error{"load_model: malformed index:value pair '" + pair + "'"};
      }
      entries.push_back({std::stoul(pair.substr(0, colon)),
                         std::stod(pair.substr(colon + 1))});
    }
    coefficients.push_back(alpha);
    svs.emplace_back(std::move(entries));
  }
}

double require_scalar(const Header& header, const std::string& key) {
  const auto it = header.scalars.find(key);
  if (it == header.scalars.end()) {
    throw std::runtime_error{"load_model: missing '" + key + "' field"};
  }
  return it->second;
}

}  // namespace

void save_model(std::ostream& out, const OneClassSvmModel& model) {
  out << kMagic << '\n';
  out << "type one_class_svm\n";
  write_kernel(out, model.kernel());
  out.precision(17);
  out << "rho " << model.rho() << '\n';
  write_svs(out, model.support_vectors(), model.coefficients());
}

void save_model(std::ostream& out, const SvddModel& model) {
  out << kMagic << '\n';
  out << "type svdd\n";
  write_kernel(out, model.kernel());
  out.precision(17);
  out << "r_squared " << model.r_squared() << '\n';
  out << "alpha_k_alpha " << model.alpha_k_alpha() << '\n';
  write_svs(out, model.support_vectors(), model.coefficients());
}

void save_model_file(const std::string& path, const AnySvmModel& model) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"save_model_file: cannot open '" + path + "'"};
  std::visit([&out](const auto& m) { save_model(out, m); }, model);
}

AnySvmModel load_model(std::istream& in) {
  const Header header = read_header(in);
  std::vector<util::SparseVector> svs;
  std::vector<double> coefficients;
  read_svs(in, header.nr_sv, svs, coefficients);
  if (header.type == "one_class_svm") {
    return OneClassSvmModel::from_parts(header.kernel, std::move(svs),
                                        std::move(coefficients),
                                        require_scalar(header, "rho"));
  }
  if (header.type == "svdd") {
    return SvddModel::from_parts(header.kernel, std::move(svs),
                                 std::move(coefficients),
                                 require_scalar(header, "r_squared"),
                                 require_scalar(header, "alpha_k_alpha"));
  }
  throw std::runtime_error{"load_model: unknown model type '" + header.type + "'"};
}

AnySvmModel load_model_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"load_model_file: cannot open '" + path + "'"};
  return load_model(in);
}

OneClassSvmModel load_one_class_model(std::istream& in) {
  AnySvmModel model = load_model(in);
  if (auto* typed = std::get_if<OneClassSvmModel>(&model)) return std::move(*typed);
  throw std::runtime_error{"load_one_class_model: stored model is not one_class_svm"};
}

SvddModel load_svdd_model(std::istream& in) {
  AnySvmModel model = load_model(in);
  if (auto* typed = std::get_if<SvddModel>(&model)) return std::move(*typed);
  throw std::runtime_error{"load_svdd_model: stored model is not svdd"};
}

// ---------------------------------------------------------------------------
// Binary blob plane.

namespace {

constexpr char kBlobMagic[8] = {'W', 'T', 'P', 'S', 'V', 'M', 'B', '1'};
constexpr std::uint32_t kBlobVersion = 1;
/// Version 2 appends the bitset companion of the SV block (DESIGN §11)
/// after the v1 sections, so mmap'd stores score through AND+popcount
/// zero-copy.  Models whose SV blocks are not bitset-representable are
/// still written as v1; readers accept both.
constexpr std::uint32_t kBlobVersionBitset = 2;
constexpr std::uint32_t kEndianGuard = 0x01020304u;

// CsrView row_offsets are std::size_t spans; the on-disk format stores u64.
// Viewing the stored array in place requires the two to be the same type.
static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
              "blob format requires 64-bit size_t");

struct BlobHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t endian;
  std::uint32_t model_type;
  std::uint32_t kernel_type;
  double gamma;
  double coef0;
  std::int32_t degree;
  std::uint32_t value_format;
  double scalar0;
  double scalar1;
  std::uint64_t sv_count;
  std::uint64_t nnz;
  std::uint64_t cols;
  std::uint64_t blob_size;
};
static_assert(sizeof(BlobHeader) == 96, "blob header layout drifted");
static_assert(offsetof(BlobHeader, gamma) == 24);
static_assert(offsetof(BlobHeader, scalar0) == 48);
static_assert(offsetof(BlobHeader, sv_count) == 64);
static_assert(offsetof(BlobHeader, blob_size) == 88);

constexpr std::size_t align8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

/// Section offsets within one blob (relative to the blob start).  The
/// bitset sections exist only in v2 blobs (words_per_row > 0 there).
struct BlobLayout {
  std::size_t row_offsets = 0;
  std::size_t indices = 0;
  std::size_t values = 0;
  std::size_t sq_norms = 0;
  std::size_t coefficients = 0;
  std::size_t bitset_header = 0;  ///< u64 words_per_row, u64 numeric_count
  std::size_t numeric_cols = 0;   ///< u32[numeric_count], padded to 8
  std::size_t words = 0;          ///< u64[sv_count * words_per_row]
  std::size_t numeric_values = 0; ///< f64[sv_count * numeric_count]
  std::size_t total = 0;
};

BlobLayout blob_layout(std::uint64_t sv_count, std::uint64_t nnz,
                       std::uint64_t words_per_row = 0,
                       std::uint64_t numeric_count = 0,
                       bool has_bitset = false) {
  BlobLayout l;
  l.row_offsets = sizeof(BlobHeader);
  l.indices = l.row_offsets + (sv_count + 1) * sizeof(std::uint64_t);
  l.values = align8(l.indices + nnz * sizeof(std::uint32_t));
  l.sq_norms = l.values + nnz * sizeof(double);
  l.coefficients = l.sq_norms + sv_count * sizeof(double);
  l.total = l.coefficients + sv_count * sizeof(double);
  if (has_bitset) {
    l.bitset_header = l.total;
    l.numeric_cols = l.bitset_header + 2 * sizeof(std::uint64_t);
    l.words = align8(l.numeric_cols + numeric_count * sizeof(std::uint32_t));
    l.numeric_values = l.words + sv_count * words_per_row * sizeof(std::uint64_t);
    l.total = l.numeric_values + sv_count * numeric_count * sizeof(double);
  }
  return l;
}

void append_bytes(std::vector<std::byte>& out, const void* data, std::size_t size) {
  if (size == 0) return;
  const auto* bytes = static_cast<const std::byte*>(data);
  out.insert(out.end(), bytes, bytes + size);
}

std::size_t append_blob_impl(std::vector<std::byte>& out, std::uint32_t model_type,
                             const KernelParams& kernel, double scalar0,
                             double scalar1, const util::FeatureMatrix& svs,
                             std::span<const double> coefficients) {
  while (out.size() % 8 != 0) out.push_back(std::byte{0});
  const std::size_t start = out.size();
  const auto view = svs.view();
  // v2 when the SV block carries a bitset companion (skipped entirely when
  // the plane is disabled via WTP_KERNEL_BACKEND=csr).
  const util::BitsetStorage* bitset =
      kernel_dispatch() != nullptr ? svs.bitset() : nullptr;
  const util::BitsetView bits =
      bitset != nullptr ? bitset->view() : util::BitsetView{};
  const BlobLayout layout =
      blob_layout(view.rows(), view.nnz(), bits.words_per_row,
                  bits.numeric_cols.size(), bitset != nullptr);

  BlobHeader header{};
  std::memcpy(header.magic, kBlobMagic, sizeof(kBlobMagic));
  header.version = bitset != nullptr ? kBlobVersionBitset : kBlobVersion;
  header.endian = kEndianGuard;
  header.model_type = model_type;
  header.kernel_type = static_cast<std::uint32_t>(kernel.type);
  header.gamma = kernel.gamma;
  header.coef0 = kernel.coef0;
  header.degree = kernel.degree;
  header.value_format = 0;
  header.scalar0 = scalar0;
  header.scalar1 = scalar1;
  header.sv_count = view.rows();
  header.nnz = view.nnz();
  header.cols = view.cols;
  header.blob_size = layout.total;

  out.reserve(start + layout.total);
  append_bytes(out, &header, sizeof(header));
  append_bytes(out, view.row_offsets.data(),
               view.row_offsets.size() * sizeof(std::uint64_t));
  append_bytes(out, view.indices.data(), view.indices.size() * sizeof(std::uint32_t));
  while ((out.size() - start) % 8 != 0) out.push_back(std::byte{0});
  append_bytes(out, view.values.data(), view.values.size() * sizeof(double));
  append_bytes(out, view.sq_norms.data(), view.sq_norms.size() * sizeof(double));
  append_bytes(out, coefficients.data(), coefficients.size() * sizeof(double));
  if (bitset != nullptr) {
    const std::uint64_t words_per_row = bits.words_per_row;
    const std::uint64_t numeric_count = bits.numeric_cols.size();
    append_bytes(out, &words_per_row, sizeof(words_per_row));
    append_bytes(out, &numeric_count, sizeof(numeric_count));
    append_bytes(out, bits.numeric_cols.data(),
                 bits.numeric_cols.size() * sizeof(std::uint32_t));
    while ((out.size() - start) % 8 != 0) out.push_back(std::byte{0});
    append_bytes(out, bits.words.data(), bits.words.size() * sizeof(std::uint64_t));
    append_bytes(out, bits.numeric_values.data(),
                 bits.numeric_values.size() * sizeof(double));
  }
  if (out.size() - start != layout.total) {
    throw std::logic_error{"append_model_blob: layout mismatch"};
  }
  return start;
}

[[noreturn]] void blob_error(const std::string& what) {
  throw std::runtime_error{"view_model_blob: " + what};
}

}  // namespace

std::size_t append_model_blob(std::vector<std::byte>& out,
                              const OneClassSvmModel& model) {
  return append_blob_impl(out, kBlobModelOneClass, model.kernel(), model.rho(),
                          0.0, model.support_vectors(), model.coefficients());
}

std::size_t append_model_blob(std::vector<std::byte>& out, const SvddModel& model) {
  return append_blob_impl(out, kBlobModelSvdd, model.kernel(), model.r_squared(),
                          model.alpha_k_alpha(), model.support_vectors(),
                          model.coefficients());
}

std::size_t append_model_blob(std::vector<std::byte>& out, const AnySvmModel& model) {
  return std::visit([&out](const auto& m) { return append_model_blob(out, m); },
                    model);
}

ModelView view_model_blob(std::span<const std::byte> blob) {
  if (reinterpret_cast<std::uintptr_t>(blob.data()) % 8 != 0) {
    blob_error("blob is not 8-byte aligned");
  }
  if (blob.size() < sizeof(BlobHeader)) {
    blob_error("truncated: " + std::to_string(blob.size()) + " bytes < " +
               std::to_string(sizeof(BlobHeader)) + "-byte header");
  }
  BlobHeader header;
  std::memcpy(&header, blob.data(), sizeof(header));
  if (std::memcmp(header.magic, kBlobMagic, sizeof(kBlobMagic)) != 0) {
    blob_error("bad magic (not a wtp svm blob)");
  }
  if (header.endian != kEndianGuard) {
    if (header.endian == 0x04030201u) {
      blob_error("endianness guard mismatch: blob was written on a "
                 "foreign-endian machine");
    }
    blob_error("corrupt endianness guard");
  }
  if (header.version != kBlobVersion && header.version != kBlobVersionBitset) {
    blob_error("unsupported version " + std::to_string(header.version));
  }
  if (header.model_type != kBlobModelOneClass && header.model_type != kBlobModelSvdd) {
    blob_error("unknown model type " + std::to_string(header.model_type));
  }
  if (header.kernel_type > static_cast<std::uint32_t>(KernelType::kSigmoid)) {
    blob_error("unknown kernel type " + std::to_string(header.kernel_type));
  }
  if (header.value_format != 0) {
    blob_error("unsupported value format " + std::to_string(header.value_format));
  }
  if (header.sv_count == 0) blob_error("zero support vectors");
  const bool has_bitset = header.version == kBlobVersionBitset;
  std::uint64_t words_per_row = 0;
  std::uint64_t numeric_count = 0;
  if (has_bitset) {
    // The bitset subheader sits right after the v1 sections; read it before
    // the full layout can be computed.
    const BlobLayout base = blob_layout(header.sv_count, header.nnz);
    if (blob.size() < base.total + 2 * sizeof(std::uint64_t)) {
      blob_error("truncated bitset subheader");
    }
    std::memcpy(&words_per_row, blob.data() + base.total, sizeof(words_per_row));
    std::memcpy(&numeric_count, blob.data() + base.total + sizeof(std::uint64_t),
                sizeof(numeric_count));
    if (words_per_row != (header.cols + 63) / 64) {
      blob_error("bitset words_per_row " + std::to_string(words_per_row) +
                 " inconsistent with cols " + std::to_string(header.cols));
    }
    if (numeric_count > util::BitsetStorage::kMaxNumericColumns) {
      blob_error("bitset numeric column count " + std::to_string(numeric_count) +
                 " exceeds limit");
    }
  }
  const BlobLayout layout =
      blob_layout(header.sv_count, header.nnz, words_per_row, numeric_count,
                  has_bitset);
  if (header.blob_size != layout.total) {
    blob_error("header blob_size " + std::to_string(header.blob_size) +
               " does not match layout size " + std::to_string(layout.total));
  }
  if (blob.size() < layout.total) {
    blob_error("truncated: " + std::to_string(blob.size()) + " bytes < " +
               std::to_string(layout.total) + " expected");
  }

  const auto* base = blob.data();
  const auto* row_offsets =
      reinterpret_cast<const std::size_t*>(base + layout.row_offsets);
  const auto* indices =
      reinterpret_cast<const std::uint32_t*>(base + layout.indices);
  const auto* values = reinterpret_cast<const double*>(base + layout.values);
  const auto* sq_norms = reinterpret_cast<const double*>(base + layout.sq_norms);
  const auto* coefficients =
      reinterpret_cast<const double*>(base + layout.coefficients);

  if (row_offsets[0] != 0) blob_error("row_offsets[0] != 0");
  for (std::size_t i = 0; i < header.sv_count; ++i) {
    if (row_offsets[i + 1] < row_offsets[i]) {
      blob_error("row_offsets not monotone at row " + std::to_string(i));
    }
  }
  if (row_offsets[header.sv_count] != header.nnz) {
    blob_error("row_offsets end " + std::to_string(row_offsets[header.sv_count]) +
               " != nnz " + std::to_string(header.nnz));
  }
  for (std::size_t k = 0; k < header.nnz; ++k) {
    if (indices[k] >= header.cols) {
      blob_error("column index " + std::to_string(indices[k]) + " >= cols " +
                 std::to_string(header.cols));
    }
  }

  ModelView view;
  view.model_type = header.model_type;
  view.kernel.type = static_cast<KernelType>(header.kernel_type);
  view.kernel.gamma = header.gamma;
  view.kernel.coef0 = header.coef0;
  view.kernel.degree = header.degree;
  view.scalar0 = header.scalar0;
  view.scalar1 = header.scalar1;
  view.support_vectors = util::CsrView{
      header.cols,
      {indices, header.nnz},
      {values, header.nnz},
      {row_offsets, header.sv_count + 1},
      {sq_norms, header.sv_count}};
  view.coefficients = {coefficients, header.sv_count};
  if (has_bitset) {
    const auto* numeric_cols =
        reinterpret_cast<const std::uint32_t*>(base + layout.numeric_cols);
    for (std::size_t k = 0; k < numeric_count; ++k) {
      if (numeric_cols[k] >= header.cols) {
        blob_error("bitset numeric column " + std::to_string(numeric_cols[k]) +
                   " >= cols " + std::to_string(header.cols));
      }
      if (k > 0 && numeric_cols[k] <= numeric_cols[k - 1]) {
        blob_error("bitset numeric columns not strictly ascending");
      }
    }
    view.has_bitset = true;
    view.sv_bitset = util::BitsetView{
        header.cols,
        header.sv_count,
        words_per_row,
        {reinterpret_cast<const std::uint64_t*>(base + layout.words),
         header.sv_count * words_per_row},
        {numeric_cols, numeric_count},
        {reinterpret_cast<const double*>(base + layout.numeric_values),
         header.sv_count * numeric_count}};
  }
  return view;
}

namespace {

/// sum_i coefficients[i] * k[i], in row order: the reduction every decision
/// (per query and batched) shares, so they agree bit for bit.
double weighted_sum(std::span<const double> coefficients,
                    std::span<const double> k) {
  double sum = 0.0;
  for (std::size_t i = 0; i < k.size(); ++i) sum += coefficients[i] * k[i];
  return sum;
}

/// Finishes a decision from its kernel expansion (paper eqs. 6 and 12).
double finish(const ModelView& view, double expansion, double x_sqnorm) {
  if (view.model_type == kBlobModelOneClass) return expansion - view.scalar0;
  const double k_xx = kernel_self(view.kernel, x_sqnorm);
  return view.scalar0 - (k_xx - 2.0 * expansion + view.scalar1);
}

/// The kernel expansion of one query, given as a SparseVector or as
/// (indices, values).
template <typename... Query>
double expansion_of(const ModelView& view, double x_sqnorm,
                    EncodedQueryCache* cache, const Query&... query) {
  const auto k = kernel_row_scratch(view.support_vectors.rows());
  kernel_row(view.kernel, view.support_vectors,
             view.has_bitset ? &view.sv_bitset : nullptr, query..., x_sqnorm,
             k, cache);
  return weighted_sum(view.coefficients, k);
}

}  // namespace

double ModelView::expansion(const util::SparseVector& x, double x_sqnorm,
                            EncodedQueryCache* cache) const {
  return expansion_of(*this, x_sqnorm, cache, x);
}

double ModelView::decision_value(std::span<const std::uint32_t> query_indices,
                                 std::span<const double> query_values,
                                 double x_sqnorm, EncodedQueryCache* cache) const {
  return finish(*this,
                expansion_of(*this, x_sqnorm, cache, query_indices, query_values),
                x_sqnorm);
}

double ModelView::decision_value(const util::SparseVector& x, double x_sqnorm,
                                 EncodedQueryCache* cache) const {
  return finish(*this, expansion(x, x_sqnorm, cache), x_sqnorm);
}

double ModelView::decision_value(const util::SparseVector& x) const {
  return decision_value(x, x.squared_norm());
}

void ModelView::decision_values(const util::FeatureMatrix& queries,
                                std::span<double> out) const {
  const std::size_t n = support_vectors.rows();
  const std::size_t nq = queries.rows();
  constexpr std::size_t kQueryTile = 64;
  thread_local std::vector<double> block;
  if (block.size() < std::min(kQueryTile, nq) * n) {
    block.resize(std::min(kQueryTile, nq) * n);
  }
  util::BitsetView query_storage;
  const util::BitsetView* query_bits = nullptr;
  if (has_bitset && kernel_dispatch() != nullptr) {
    if (const util::BitsetStorage* qb = queries.bitset()) {
      query_storage = qb->view();
      query_bits = &query_storage;
    }
  }
  for (std::size_t q0 = 0; q0 < nq; q0 += kQueryTile) {
    const std::size_t tile = std::min(kQueryTile, nq - q0);
    const std::span<double> k{block.data(), tile * n};
    util::BitsetView query_slice;
    const util::BitsetView* slice_bits = nullptr;
    if (query_bits != nullptr) {
      query_slice = query_bits->rows_slice(q0, tile);
      slice_bits = &query_slice;
    }
    kernel_block(kernel, support_vectors, has_bitset ? &sv_bitset : nullptr,
                 queries.view().rows_slice(q0, tile), slice_bits, k);
    for (std::size_t t = 0; t < tile; ++t) {
      out[q0 + t] = finish(*this, weighted_sum(coefficients, k.subspan(t * n, n)),
                           queries.sq_norm(q0 + t));
    }
  }
}

namespace {

/// The heap matrix's cached bitset, attached so views score through the
/// same AND+popcount plane as mmap'd blobs.  Skips the (lazy) build when
/// the plane is disabled.
void attach_bitset(ModelView& view, const util::FeatureMatrix& svs) {
  if (kernel_dispatch() == nullptr) return;
  if (const util::BitsetStorage* bits = svs.bitset()) {
    view.has_bitset = true;
    view.sv_bitset = bits->view();
  }
}

}  // namespace

ModelView view_of(const OneClassSvmModel& model) {
  ModelView view;
  view.model_type = kBlobModelOneClass;
  view.kernel = model.kernel();
  view.scalar0 = model.rho();
  view.scalar1 = 0.0;
  view.support_vectors = model.support_vectors().view();
  view.coefficients = model.coefficients();
  attach_bitset(view, model.support_vectors());
  return view;
}

ModelView view_of(const SvddModel& model) {
  ModelView view;
  view.model_type = kBlobModelSvdd;
  view.kernel = model.kernel();
  view.scalar0 = model.r_squared();
  view.scalar1 = model.alpha_k_alpha();
  view.support_vectors = model.support_vectors().view();
  view.coefficients = model.coefficients();
  attach_bitset(view, model.support_vectors());
  return view;
}

ModelView view_of(const AnySvmModel& model) {
  return std::visit([](const auto& m) { return view_of(m); }, model);
}

AnySvmModel materialize(const ModelView& view) {
  util::FeatureMatrixBuilder builder;
  const auto& svs = view.support_vectors;
  for (std::size_t i = 0; i < svs.rows(); ++i) {
    const auto indices = svs.row_indices(i);
    const auto values = svs.row_values(i);
    for (std::size_t k = 0; k < indices.size(); ++k) {
      builder.add(indices[k], values[k]);
    }
    builder.finish_row();
  }
  util::FeatureMatrix matrix = builder.build(svs.cols);
  std::vector<double> coefficients{view.coefficients.begin(),
                                   view.coefficients.end()};
  if (view.model_type == kBlobModelOneClass) {
    return OneClassSvmModel::from_parts(view.kernel, std::move(matrix),
                                        std::move(coefficients), view.scalar0);
  }
  return SvddModel::from_parts(view.kernel, std::move(matrix),
                               std::move(coefficients), view.scalar0,
                               view.scalar1);
}

}  // namespace wtp::svm

#include "transform/compiled.h"

#include <utility>

#include "parallel/parallel_for.h"
#include "transform/function.h"
#include "util/status.h"

namespace popp {
namespace {

/// Row-block granularity of the (attribute x block) task grid: large enough
/// to amortize task dispatch, small enough that a 100k-row column still
/// splits across every worker.
constexpr size_t kBlockRows = 8192;

}  // namespace

DomainBounds DomainBounds::Of(const PiecewiseTransform& t) {
  POPP_CHECK_MSG(t.NumPieces() > 0, "DomainBounds of an empty transform");
  DomainBounds b;
  b.lo = t.piece(0).domain_lo;
  b.hi = t.piece(t.NumPieces() - 1).domain_hi;
  b.out_min = t.piece(0).out_lo;
  b.out_max = t.piece(0).out_hi;
  for (size_t i = 1; i < t.NumPieces(); ++i) {
    b.out_min = std::min(b.out_min, t.piece(i).out_lo);
    b.out_max = std::max(b.out_max, t.piece(i).out_hi);
  }
  const AttrValue domain_width = b.hi - b.lo;
  b.slope = domain_width > 0 ? (b.out_max - b.out_min) / domain_width : 1.0;
  b.anti = t.global_anti_monotone();
  return b;
}

CompiledTransform CompiledTransform::Compile(const PiecewiseTransform& t,
                                             const CompileOptions& options) {
  POPP_CHECK_MSG(t.NumPieces() > 0, "Compile on an empty transform");
  const size_t k = t.NumPieces();
  CompiledTransform c;
  c.global_anti_ = t.global_anti_monotone();
  c.domain_lo_.reserve(k);
  c.domain_hi_.reserve(k);
  c.out_lo_.reserve(k);
  c.out_hi_.reserve(k);
  c.tag_.reserve(k);
  c.anti_.reserve(k);
  c.fdlo_.reserve(k);
  c.fdhi_.reserve(k);
  c.folo_.reserve(k);
  c.fohi_.reserve(k);
  c.param_.reserve(k);
  c.denom_.reserve(k);
  c.perm_off_.reserve(k + 1);
  c.perm_off_.push_back(0);

  bool integral_hull = true;
  for (size_t d = 0; d < k; ++d) {
    const PiecewiseTransform::Piece& piece = t.piece(d);
    c.domain_lo_.push_back(piece.domain_lo);
    c.domain_hi_.push_back(piece.domain_hi);
    c.out_lo_.push_back(piece.out_lo);
    c.out_hi_.push_back(piece.out_hi);
    integral_hull = integral_hull &&
                    piece.domain_lo == std::floor(piece.domain_lo) &&
                    piece.domain_hi == std::floor(piece.domain_hi);

    if (const auto* perm =
            dynamic_cast<const PermutationFunction*>(piece.fn.get())) {
      c.tag_.push_back(static_cast<uint8_t>(PieceTag::kPerm));
      c.anti_.push_back(0);
      c.fdlo_.push_back(0);
      c.fdhi_.push_back(0);
      c.folo_.push_back(0);
      c.fohi_.push_back(0);
      c.param_.push_back(0);
      c.denom_.push_back(0);
      const auto& dom = perm->domain();
      const auto& img = perm->image();
      c.perm_domain_.insert(c.perm_domain_.end(), dom.begin(), dom.end());
      c.perm_image_.insert(c.perm_image_.end(), img.begin(), img.end());
      // Image-sorted inverse index, exactly as PermutationFunction builds
      // its by_image_ pairs.
      std::vector<std::pair<AttrValue, AttrValue>> by_image;
      by_image.reserve(img.size());
      for (size_t i = 0; i < img.size(); ++i) {
        by_image.emplace_back(img[i], dom[i]);
      }
      std::sort(by_image.begin(), by_image.end());
      for (const auto& [image, preimage] : by_image) {
        c.perm_img_sorted_.push_back(image);
        c.perm_preimage_.push_back(preimage);
      }
      c.perm_off_.push_back(c.perm_domain_.size());
      continue;
    }

    const auto* rescaled =
        dynamic_cast<const RescaledFunction*>(piece.fn.get());
    POPP_CHECK_MSG(rescaled != nullptr,
                   "Compile: piece " << d << " has an unknown function type");
    c.anti_.push_back(rescaled->anti_monotone() ? 1 : 0);
    c.fdlo_.push_back(rescaled->dlo());
    c.fdhi_.push_back(rescaled->dhi());
    c.folo_.push_back(rescaled->olo());
    c.fohi_.push_back(rescaled->ohi());
    const ShapeFunction& shape = rescaled->shape();
    if (const auto* power = dynamic_cast<const PowerShape*>(&shape)) {
      c.tag_.push_back(static_cast<uint8_t>(PieceTag::kPower));
      c.param_.push_back(power->exponent());
      c.denom_.push_back(0);
    } else if (const auto* log = dynamic_cast<const LogShape*>(&shape)) {
      c.tag_.push_back(static_cast<uint8_t>(PieceTag::kLog));
      c.param_.push_back(log->alpha());
      c.denom_.push_back(std::log1p(log->alpha()));
    } else if (const auto* sqrt_log =
                   dynamic_cast<const SqrtLogShape*>(&shape)) {
      c.tag_.push_back(static_cast<uint8_t>(PieceTag::kSqrtLog));
      c.param_.push_back(sqrt_log->alpha());
      c.denom_.push_back(std::log1p(sqrt_log->alpha()));
    } else {
      POPP_CHECK_MSG(dynamic_cast<const IdentityShape*>(&shape) != nullptr,
                     "Compile: piece " << d << " has an unknown shape");
      c.tag_.push_back(static_cast<uint8_t>(PieceTag::kLinear));
      c.param_.push_back(0);
      c.denom_.push_back(0);
    }
    c.perm_off_.push_back(c.perm_domain_.size());
  }

  // Inverse piece routing: output-interval bounds in output order.
  c.oolo_.resize(k);
  c.oohi_.resize(k);
  for (size_t p = 0; p < k; ++p) {
    const size_t d = c.OutToDomain(p);
    c.oolo_[p] = c.out_lo_[d];
    c.oohi_[p] = c.out_hi_[d];
  }

  c.bounds_ = DomainBounds::Of(t);

  // LUT eligibility rule: every piece's domain endpoints are integral (a
  // small-integer active domain, the covertype shape) and the hull holds at
  // most max_lut_entries integers. Entries are the *interpreted* images, so
  // a LUT hit is bit-identical to PiecewiseTransform::Apply by construction.
  if (options.enable_lut && integral_hull) {
    const double base = std::ceil(c.bounds_.lo);
    const double last = std::floor(c.bounds_.hi);
    const double span = last - base;
    if (span >= 0 &&
        span < static_cast<double>(options.max_lut_entries)) {
      c.lut_base_ = base;
      c.lut_last_ = last;
      c.lut_.reserve(static_cast<size_t>(span) + 1);
      c.lut_covered_.assign(static_cast<size_t>(span) / 64 + 1, 0);
      for (double v = base; v <= last; v += 1.0) {
        const size_t i = c.lut_.size();
        c.lut_covered_[i / 64] |= uint64_t{c.CoversSearch(v)} << (i % 64);
        c.lut_.push_back(t.Apply(v));
      }
      c.has_lut_ = true;
    }
  }
  return c;
}

size_t CompiledTransform::DomainPiece(AttrValue x) const {
  POPP_DCHECK(!tag_.empty());
  // The same binary search as PiecewiseTransform::DomainPieceIndex, over a
  // flat array.
  size_t lo = 0, hi = tag_.size();
  while (lo + 1 < hi) {
    const size_t mid = (lo + hi) / 2;
    if (domain_lo_[mid] <= x) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool CompiledTransform::CoversSearch(AttrValue x) const {
  const size_t d = DomainPiece(x);
  if (x > domain_hi_[d] || static_cast<PieceTag>(tag_[d]) != PieceTag::kPerm) {
    return true;  // an inter-piece gap or a monotone piece
  }
  const AttrValue* dom = perm_domain_.data() + perm_off_[d];
  const AttrValue* end = perm_domain_.data() + perm_off_[d + 1];
  return std::binary_search(dom, end, x);
}

AttrValue CompiledTransform::ApplySearch(AttrValue x) const {
  const size_t k = tag_.size();
  const size_t lo = DomainPiece(x);
  if (x <= domain_hi_[lo] || lo + 1 == k) {
    return EvalPiece(lo, x);
  }
  // Domain gap between pieces lo and lo+1: linear output bridge in the
  // global direction (PiecewiseTransform::Apply's gap branch, verbatim).
  const double t = (x - domain_hi_[lo]) / (domain_lo_[lo + 1] - domain_hi_[lo]);
  if (!global_anti_) {
    return out_hi_[lo] + t * (out_lo_[lo + 1] - out_hi_[lo]);
  }
  return out_lo_[lo] + t * (out_hi_[lo + 1] - out_lo_[lo]);
}

AttrValue CompiledTransform::EvalPiece(size_t d, AttrValue x) const {
  const PieceTag tag = static_cast<PieceTag>(tag_[d]);
  if (tag == PieceTag::kPerm) {
    const AttrValue* dom = perm_domain_.data() + perm_off_[d];
    const AttrValue* img = perm_image_.data() + perm_off_[d];
    const size_t n = perm_off_[d + 1] - perm_off_[d];
    const AttrValue* it = std::lower_bound(dom, dom + n, x);
    if (it != dom + n && *it == x) {
      return img[it - dom];
    }
    // Nearest-domain snap, ties to the smaller value (function.cc Nearest).
    if (it == dom) return img[0];
    if (it == dom + n) return img[n - 1];
    const AttrValue above = *it;
    const AttrValue below = *(it - 1);
    return (x - below) <= (above - x) ? img[it - dom - 1] : img[it - dom];
  }
  // F_mono: RescaledFunction::Apply's exact operation sequence, with the
  // shape's Forward inlined per tag. Shape-internal Clamp01 calls are
  // no-ops here because t is already clamped.
  const double t =
      std::min(1.0, std::max(0.0, (x - fdlo_[d]) / (fdhi_[d] - fdlo_[d])));
  double s = t;
  switch (tag) {
    case PieceTag::kLinear:
      break;
    case PieceTag::kPower:
      s = std::pow(t, param_[d]);
      break;
    case PieceTag::kLog:
      s = std::log1p(param_[d] * t) / denom_[d];
      break;
    case PieceTag::kSqrtLog:
      s = std::sqrt(std::log1p(param_[d] * t) / denom_[d]);
      break;
    case PieceTag::kPerm:
      break;  // handled above
  }
  const double y = anti_[d] ? fohi_[d] - (fohi_[d] - folo_[d]) * s
                            : folo_[d] + (fohi_[d] - folo_[d]) * s;
  return std::min(fohi_[d], std::max(folo_[d], y));
}

AttrValue CompiledTransform::Inverse(AttrValue y) const {
  POPP_DCHECK(!tag_.empty());
  const size_t k = tag_.size();
  // PiecewiseTransform::OutputPieceIndex, over the flat output-order arrays.
  if (y < oolo_[0]) {
    return InvertPiece(OutToDomain(0), y);
  }
  size_t lo = 0, hi = k;
  while (lo + 1 < hi) {
    const size_t mid = (lo + hi) / 2;
    if (oolo_[mid] <= y) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  if (y <= oohi_[lo] || lo + 1 == k) {
    return InvertPiece(OutToDomain(lo), y);
  }
  // Output gap after output position lo: invert Apply's linear bridge
  // between the two domain-adjacent pieces.
  const size_t d1 = OutToDomain(lo);
  const size_t d2 = OutToDomain(lo + 1);
  const size_t da = std::min(d1, d2);
  double t;
  if (!global_anti_) {
    t = (y - out_hi_[da]) / (out_lo_[da + 1] - out_hi_[da]);
  } else {
    t = (y - out_lo_[da]) / (out_hi_[da + 1] - out_lo_[da]);
  }
  t = std::min(1.0, std::max(0.0, t));
  return domain_hi_[da] + t * (domain_lo_[da + 1] - domain_hi_[da]);
}

AttrValue CompiledTransform::InvertPiece(size_t d, AttrValue y) const {
  const PieceTag tag = static_cast<PieceTag>(tag_[d]);
  if (tag == PieceTag::kPerm) {
    const AttrValue* img = perm_img_sorted_.data() + perm_off_[d];
    const AttrValue* pre = perm_preimage_.data() + perm_off_[d];
    const size_t n = perm_off_[d + 1] - perm_off_[d];
    const AttrValue* it = std::lower_bound(img, img + n, y);
    if (it != img + n && *it == y) {
      return pre[it - img];
    }
    // Nearest-image snap (PermutationFunction::Inverse's tie rule).
    if (it == img) return pre[0];
    if (it == img + n) return pre[n - 1];
    const AttrValue above = *it;
    const AttrValue below = *(it - 1);
    return (y - below) <= (above - y) ? pre[it - img - 1] : pre[it - img];
  }
  // RescaledFunction::Inverse with the shape's Backward inlined per tag.
  const double s = std::min(
      1.0, std::max(0.0, anti_[d] ? (fohi_[d] - y) / (fohi_[d] - folo_[d])
                                  : (y - folo_[d]) / (fohi_[d] - folo_[d])));
  double t = s;
  switch (tag) {
    case PieceTag::kLinear:
      break;
    case PieceTag::kPower:
      t = std::pow(s, 1.0 / param_[d]);
      break;
    case PieceTag::kLog:
      t = std::expm1(s * denom_[d]) / param_[d];
      break;
    case PieceTag::kSqrtLog:
      t = std::expm1(s * s * denom_[d]) / param_[d];
      break;
    case PieceTag::kPerm:
      break;  // handled above
  }
  const double x = fdlo_[d] + t * (fdhi_[d] - fdlo_[d]);
  return std::min(fdhi_[d], std::max(fdlo_[d], x));
}

void CompiledTransform::ApplyColumn(const AttrValue* in, AttrValue* out,
                                    size_t n) const {
  for (size_t i = 0; i < n; ++i) {
    out[i] = Apply(in[i]);
  }
}

void CompiledTransform::InverseColumn(const AttrValue* in, AttrValue* out,
                                      size_t n) const {
  for (size_t i = 0; i < n; ++i) {
    out[i] = Inverse(in[i]);
  }
}

void CompiledTransform::ApplyColumn(std::vector<AttrValue>& values) const {
  ApplyColumn(values.data(), values.data(), values.size());
}

AttrValue CompiledTransform::EncodeClamped(AttrValue x) const {
  return OodEncodeClamped(bounds_, x, [this](AttrValue v) { return Apply(v); });
}

AttrValue CompiledTransform::EncodeExtended(AttrValue x) const {
  return OodEncodeExtended(bounds_, x,
                           [this](AttrValue v) { return Apply(v); });
}

CompiledPlan CompiledPlan::Compile(
    const TransformPlan& plan, const CompiledTransform::CompileOptions& options) {
  CompiledPlan compiled;
  compiled.transforms_.reserve(plan.NumAttributes());
  for (size_t attr = 0; attr < plan.NumAttributes(); ++attr) {
    compiled.transforms_.push_back(
        CompiledTransform::Compile(plan.transform(attr), options));
  }
  return compiled;
}

const CompiledTransform& CompiledPlan::transform(size_t attr) const {
  POPP_CHECK_MSG(attr < transforms_.size(), "bad attribute " << attr);
  return transforms_[attr];
}

void CompiledPlan::EncodeColumn(size_t attr, const AttrValue* in,
                                AttrValue* out, size_t n,
                                const ExecPolicy& exec) const {
  const CompiledTransform& t = transform(attr);
  const size_t blocks = (n + kBlockRows - 1) / kBlockRows;
  if (blocks <= 1 || exec.IsSerial()) {
    t.ApplyColumn(in, out, n);
    return;
  }
  ParallelFor(exec, blocks, [&](size_t blk) {
    const size_t begin = blk * kBlockRows;
    const size_t end = std::min(n, begin + kBlockRows);
    t.ApplyColumn(in + begin, out + begin, end - begin);
  });
}

Dataset CompiledPlan::EncodeDataset(const Dataset& data,
                                    const ExecPolicy& exec) const {
  POPP_CHECK_MSG(data.NumAttributes() == transforms_.size(),
                 "plan/dataset attribute count mismatch");
  const size_t rows = data.NumRows();
  const size_t attrs = transforms_.size();
  std::vector<std::vector<AttrValue>> columns(attrs);
  for (auto& col : columns) {
    col.resize(rows);
  }
  // (attribute x row-block) task grid: write-disjoint, index-addressed, so
  // any thread count produces the same bytes.
  const size_t blocks = rows == 0 ? 0 : (rows + kBlockRows - 1) / kBlockRows;
  ParallelFor(exec, attrs * blocks, [&](size_t task) {
    const size_t attr = task / blocks;
    const size_t begin = (task % blocks) * kBlockRows;
    const size_t end = std::min(rows, begin + kBlockRows);
    transforms_[attr].ApplyColumn(data.Column(attr).data() + begin,
                                  columns[attr].data() + begin, end - begin);
  });
  return Dataset(data.schema(), std::move(columns), data.labels());
}

}  // namespace popp

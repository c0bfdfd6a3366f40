#include "transform/piecewise.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>

#include "transform/choose_bp.h"
#include "transform/choose_max_mp.h"
#include "transform/pieces.h"
#include "util/status.h"

namespace popp {

std::string ToString(BreakpointPolicy policy) {
  switch (policy) {
    case BreakpointPolicy::kNone:
      return "none";
    case BreakpointPolicy::kChooseBP:
      return "ChooseBP";
    case BreakpointPolicy::kChooseMaxMP:
      return "ChooseMaxMP";
  }
  return "?";
}

Result<BreakpointPolicy> ParseBreakpointPolicy(const std::string& text) {
  if (text == "none") return BreakpointPolicy::kNone;
  if (text == "bp") return BreakpointPolicy::kChooseBP;
  if (text == "maxmp") return BreakpointPolicy::kChooseMaxMP;
  return Status::InvalidArgument("unknown policy '" + text + "'");
}

PiecewiseTransform::Piece::Piece(const Piece& other)
    : domain_lo(other.domain_lo),
      domain_hi(other.domain_hi),
      out_lo(other.out_lo),
      out_hi(other.out_hi),
      bijective(other.bijective),
      fn(other.fn ? other.fn->Clone() : nullptr) {}

PiecewiseTransform::Piece& PiecewiseTransform::Piece::operator=(
    const Piece& other) {
  if (this != &other) {
    domain_lo = other.domain_lo;
    domain_hi = other.domain_hi;
    out_lo = other.out_lo;
    out_hi = other.out_hi;
    bijective = other.bijective;
    fn = other.fn ? other.fn->Clone() : nullptr;
  }
  return *this;
}

PiecewiseTransform PiecewiseTransform::Create(const AttributeSummary& summary,
                                              const PiecewiseOptions& options,
                                              Rng& rng) {
  const size_t n = summary.NumDistinct();
  POPP_CHECK_MSG(n > 0, "PiecewiseTransform::Create on empty summary");

  // --- Phase 1: piece layout. ---------------------------------------
  std::vector<size_t> starts;
  switch (options.policy) {
    case BreakpointPolicy::kNone:
      starts = {0};
      break;
    case BreakpointPolicy::kChooseBP:
      starts = ChooseBP(summary, options.min_breakpoints, rng);
      break;
    case BreakpointPolicy::kChooseMaxMP:
      starts = ChooseMaxMP(summary, options.min_breakpoints,
                           options.min_mono_width, rng)
                   .piece_starts;
      break;
  }
  const std::vector<PieceSpec> specs =
      ComputePieces(summary, starts, options.min_mono_width);
  const size_t k = specs.size();

  // --- Phase 2: disjoint target intervals (Definition 8 holds by
  // construction: interval p+1 starts strictly above interval p). --------
  const AttrValue in_lo = summary.MinValue();
  const AttrValue in_hi = summary.MaxValue();
  const double in_width = std::max(1.0, static_cast<double>(in_hi - in_lo));
  const double out_width =
      in_width *
      rng.Uniform(options.out_width_factor_min, options.out_width_factor_max);
  const double out_start =
      in_lo + rng.Uniform(options.out_offset_min, options.out_offset_max) *
                  in_width;

  // Per-piece interval widths via recursive stick-breaking (see
  // PiecewiseOptions::width_split_skew): each recursion cuts the current
  // budget at a random skewed fraction, independently of piece sizes, so
  // the allocation is multifractal — random at every scale — and the
  // hacker can infer neither a piece's location from its value count nor
  // the aggregate map from a few fitted points.
  POPP_CHECK_MSG(options.width_split_skew >= 0.0 &&
                     options.width_split_skew < 1.0,
                 "width_split_skew must be in [0, 1)");
  const double cut_lo = 0.5 - options.width_split_skew / 2;
  const double cut_hi = 0.5 + options.width_split_skew / 2;
  std::vector<double> piece_w(k);
  const std::function<void(size_t, size_t, double)> split =
      [&](size_t begin, size_t end, double budget) {
        if (end - begin == 1) {
          piece_w[begin] = budget;
          return;
        }
        const size_t mid = begin + (end - begin) / 2;
        const double left = budget * rng.Uniform(cut_lo, cut_hi);
        split(begin, mid, left);
        split(mid, end, budget - left);
      };
  split(0, k, 1.0);
  std::vector<double> gap_w(k > 0 ? k - 1 : 0);
  double piece_sum = 0.0;
  double gap_sum = 0.0;
  for (size_t p = 0; p < k; ++p) {
    piece_sum += piece_w[p];
  }
  for (auto& g : gap_w) {
    g = rng.Uniform(0.5, 1.5);
    gap_sum += g;
  }
  const double gap_total = (k > 1) ? options.gap_fraction * out_width : 0.0;
  const double piece_total = out_width - gap_total;
  POPP_CHECK(piece_total > 0.0);

  // Interval bounds in output order.
  std::vector<AttrValue> olo(k), ohi(k);
  double cursor = out_start;
  for (size_t p = 0; p < k; ++p) {
    const double width = piece_total * piece_w[p] / piece_sum;
    olo[p] = cursor;
    ohi[p] = cursor + width;
    cursor = ohi[p];
    if (p + 1 < k) {
      cursor += gap_total * gap_w[p] / gap_sum;
    }
  }

  // --- Phase 3: one function per piece. ------------------------------
  PiecewiseTransform result;
  result.global_anti_ = options.global_anti_monotone;
  result.pieces_.resize(k);
  const bool exploit = options.exploit_monochromatic &&
                       options.policy == BreakpointPolicy::kChooseMaxMP;
  for (size_t d = 0; d < k; ++d) {
    const size_t p = options.global_anti_monotone ? k - 1 - d : d;
    const PieceSpec& spec = specs[d];
    Piece& piece = result.pieces_[d];
    piece.domain_lo = summary.ValueAt(spec.begin);
    piece.domain_hi = summary.ValueAt(spec.end - 1);

    if (spec.length() == 1) {
      // Single-value piece: pin its image to the interval midpoint.
      const AttrValue mid = olo[p] + (ohi[p] - olo[p]) / 2;
      piece.fn = std::make_unique<PermutationFunction>(
          std::vector<AttrValue>{piece.domain_lo},
          std::vector<AttrValue>{mid});
      piece.bijective = true;
      piece.out_lo = mid;
      piece.out_hi = mid;
    } else if (exploit && spec.monochromatic) {
      std::vector<AttrValue> domain_values(
          summary.values().begin() + static_cast<ptrdiff_t>(spec.begin),
          summary.values().begin() + static_cast<ptrdiff_t>(spec.end));
      piece.fn = SamplePermutation(domain_values, olo[p], ohi[p], rng);
      piece.bijective = true;
      // Tighten the interval to the image hull so piece-boundary split
      // thresholds always land in inter-piece gaps.
      const auto* perm = static_cast<const PermutationFunction*>(piece.fn.get());
      piece.out_lo = *std::min_element(perm->image().begin(),
                                       perm->image().end());
      piece.out_hi = *std::max_element(perm->image().begin(),
                                       perm->image().end());
    } else {
      // Direction freedom is only outcome-safe on monochromatic pieces
      // (a single label run tolerates any internal reordering, cf. the
      // paper's Figure 4 where the anti-monotone function is applied to
      // the pure run r1). A non-monochromatic piece must follow the
      // global direction, or its sub-class-string would reverse and the
      // label runs — hence the tree — would change.
      const bool mono_range =
          IsMonochromaticRange(summary, spec.begin, spec.end);
      const bool anti =
          mono_range ? rng.Bernoulli(options.family.anti_monotone_prob)
                     : options.global_anti_monotone;
      piece.fn =
          SampleMonotoneDirected(options.family, piece.domain_lo,
                                 piece.domain_hi, olo[p], ohi[p], anti, rng);
      piece.bijective = false;
      piece.out_lo = olo[p];
      piece.out_hi = ohi[p];
    }
  }
  return result;
}

PiecewiseTransform PiecewiseTransform::FromPieces(std::vector<Piece> pieces,
                                                  bool global_anti_monotone) {
  POPP_CHECK_MSG(!pieces.empty(), "FromPieces: no pieces");
  for (size_t d = 0; d < pieces.size(); ++d) {
    POPP_CHECK_MSG(pieces[d].fn != nullptr, "FromPieces: piece " << d
                                                                 << " has no "
                                                                    "function");
    POPP_CHECK(pieces[d].domain_lo <= pieces[d].domain_hi);
    if (d > 0) {
      POPP_CHECK_MSG(pieces[d - 1].domain_hi < pieces[d].domain_lo,
                     "FromPieces: domain intervals must increase");
      if (!global_anti_monotone) {
        POPP_CHECK_MSG(pieces[d - 1].out_hi < pieces[d].out_lo,
                       "FromPieces: output intervals violate the "
                       "global-monotone invariant");
      } else {
        POPP_CHECK_MSG(pieces[d - 1].out_lo > pieces[d].out_hi,
                       "FromPieces: output intervals violate the "
                       "global-anti-monotone invariant");
      }
    }
  }
  PiecewiseTransform out;
  out.pieces_ = std::move(pieces);
  out.global_anti_ = global_anti_monotone;
  return out;
}

const PiecewiseTransform::Piece& PiecewiseTransform::piece(size_t i) const {
  POPP_CHECK_MSG(i < pieces_.size(), "bad piece index " << i);
  return pieces_[i];
}

size_t PiecewiseTransform::DomainPieceIndex(AttrValue x) const {
  POPP_DCHECK(!pieces_.empty());
  // Largest d with pieces_[d].domain_lo <= x (clamped to 0).
  size_t lo = 0, hi = pieces_.size();
  while (lo + 1 < hi) {
    const size_t mid = (lo + hi) / 2;
    if (pieces_[mid].domain_lo <= x) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t PiecewiseTransform::OutputOrderToDomainIndex(size_t p) const {
  return global_anti_ ? pieces_.size() - 1 - p : p;
}

size_t PiecewiseTransform::OutputPieceIndex(AttrValue y,
                                            size_t* gap_after) const {
  POPP_DCHECK(!pieces_.empty());
  const size_t k = pieces_.size();
  // Output-ordered interval p belongs to domain piece OutputOrderToDomain(p).
  // Binary search the largest p with out_lo(p) <= y.
  size_t lo = 0, hi = k;
  auto out_lo_of = [&](size_t p) {
    return pieces_[OutputOrderToDomainIndex(p)].out_lo;
  };
  auto out_hi_of = [&](size_t p) {
    return pieces_[OutputOrderToDomainIndex(p)].out_hi;
  };
  if (y < out_lo_of(0)) {
    // Below all intervals: clamp to the first piece.
    if (gap_after) *gap_after = npos;
    return OutputOrderToDomainIndex(0);
  }
  while (lo + 1 < hi) {
    const size_t mid = (lo + hi) / 2;
    if (out_lo_of(mid) <= y) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  if (y <= out_hi_of(lo) || lo + 1 == k) {
    if (gap_after) *gap_after = npos;
    return OutputOrderToDomainIndex(lo);
  }
  // y is in the gap between output positions lo and lo+1.
  if (gap_after) *gap_after = lo;
  return npos;
}

AttrValue PiecewiseTransform::Apply(AttrValue x) const {
  POPP_CHECK_MSG(!pieces_.empty(), "Apply on empty transform");
  const size_t d = DomainPieceIndex(x);
  const Piece& piece = pieces_[d];
  if (x <= piece.domain_hi || d + 1 == pieces_.size()) {
    return piece.fn->Apply(x);
  }
  // x falls in the domain gap between pieces d and d+1: bridge the output
  // gap linearly, in the global direction.
  const Piece& next = pieces_[d + 1];
  const double t = (x - piece.domain_hi) / (next.domain_lo - piece.domain_hi);
  if (!global_anti_) {
    return piece.out_hi + t * (next.out_lo - piece.out_hi);
  }
  return piece.out_lo + t * (next.out_hi - piece.out_lo);
}

AttrValue PiecewiseTransform::Inverse(AttrValue y) const {
  POPP_CHECK_MSG(!pieces_.empty(), "Inverse on empty transform");
  size_t gap_after = npos;
  const size_t d = OutputPieceIndex(y, &gap_after);
  if (d != npos) {
    return pieces_[d].fn->Inverse(y);
  }
  // y lies in the gap after output position `gap_after`: invert the linear
  // bridge of Apply. The two output-adjacent pieces are domain-adjacent
  // (consecutive d's), in forward or reverse order by global direction.
  const size_t d1 = OutputOrderToDomainIndex(gap_after);
  const size_t d2 = OutputOrderToDomainIndex(gap_after + 1);
  const size_t da = std::min(d1, d2);  // lower domain piece
  const Piece& a = pieces_[da];
  const Piece& b = pieces_[da + 1];
  double t;
  if (!global_anti_) {
    t = (y - a.out_hi) / (b.out_lo - a.out_hi);
  } else {
    t = (y - a.out_lo) / (b.out_hi - a.out_lo);
  }
  t = std::min(1.0, std::max(0.0, t));
  return a.domain_hi + t * (b.domain_lo - a.domain_hi);
}

PiecewiseTransform::ThresholdDecode PiecewiseTransform::InverseThreshold(
    AttrValue y) const {
  POPP_CHECK_MSG(!pieces_.empty(), "InverseThreshold on empty transform");
  ThresholdDecode decode;
  size_t gap_after = npos;
  const size_t d = OutputPieceIndex(y, &gap_after);
  if (d != npos) {
    const Piece& piece = pieces_[d];
    decode.value = piece.fn->Inverse(y);
    decode.order_reversed =
        piece.bijective ? global_anti_
                        : piece.fn->kind() == FunctionKind::kAntiMonotone;
    return decode;
  }
  // Gap: a split separating whole pieces; the global direction governs.
  decode.value = Inverse(y);
  decode.order_reversed = global_anti_;
  return decode;
}

bool PiecewiseTransform::SatisfiesGlobalInvariant(
    const AttributeSummary& summary) const {
  if (pieces_.empty()) return false;
  // Images of all active-domain values, in domain order.
  std::vector<AttrValue> images;
  images.reserve(summary.NumDistinct());
  for (AttrValue v : summary.values()) {
    images.push_back(Apply(v));
  }
  // All images must be distinct (bijectivity).
  std::vector<AttrValue> sorted = images;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return false;
  }
  // Definition 8: for pieces i < j, every image of i is strictly below
  // (global-monotone) / above (global-anti-monotone) every image of j.
  // Because pieces partition the sorted domain, it suffices to compare
  // consecutive pieces' image ranges.
  size_t d = 0;
  AttrValue prev_min = 0, prev_max = 0;
  bool have_prev = false;
  size_t i = 0;
  while (i < images.size()) {
    // Gather this piece's image range.
    const Piece& piece = pieces_[d];
    AttrValue lo = images[i], hi = images[i];
    while (i < images.size() && summary.ValueAt(i) <= piece.domain_hi) {
      lo = std::min(lo, images[i]);
      hi = std::max(hi, images[i]);
      ++i;
    }
    if (have_prev) {
      if (!global_anti_ && !(prev_max < lo)) return false;
      if (global_anti_ && !(prev_min > hi)) return false;
    }
    prev_min = lo;
    prev_max = hi;
    have_prev = true;
    ++d;
  }
  return d == pieces_.size();
}

std::string PiecewiseTransform::Describe() const {
  std::ostringstream oss;
  oss << "piecewise(" << pieces_.size() << " pieces, global-"
      << (global_anti_ ? "anti-monotone" : "monotone") << ")\n";
  for (size_t d = 0; d < pieces_.size(); ++d) {
    const Piece& piece = pieces_[d];
    oss << "  piece " << d << ": [" << piece.domain_lo << ", "
        << piece.domain_hi << "] via " << piece.fn->Describe() << "\n";
  }
  return oss.str();
}

}  // namespace popp

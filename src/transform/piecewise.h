#ifndef POPP_TRANSFORM_PIECEWISE_H_
#define POPP_TRANSFORM_PIECEWISE_H_

#include <memory>
#include <string>
#include <vector>

#include "data/summary.h"
#include "transform/families.h"
#include "transform/function.h"
#include "util/rng.h"
#include "util/status.h"

/// \file
/// The piecewise (anti-)monotone transformation of one attribute — the
/// paper's core contribution (Section 5).
///
/// The attribute's active domain is split into pieces (ChooseBP or
/// ChooseMaxMP); each piece receives a randomly selected function from
/// F_mono (or F_bi for monochromatic pieces); and every piece's outputs are
/// confined to a dedicated target interval, with the intervals ordered so
/// the global-(anti-)monotone invariant of Definition 8 holds *by
/// construction*: for pieces i < j, every output of piece i is strictly
/// below (resp. above) every output of piece j.

namespace popp {

/// How piece boundaries are chosen when creating a PiecewiseTransform.
enum class BreakpointPolicy {
  kNone,         ///< a single piece over the whole domain (the baseline)
  kChooseBP,     ///< random breakpoints (paper Figure 5)
  kChooseMaxMP,  ///< maximal monochromatic pieces + random top-up (Figure 6)
};

/// Returns "none", "ChooseBP" or "ChooseMaxMP".
std::string ToString(BreakpointPolicy policy);

/// Parses the spelling `--policy` and the serve `policy` option take:
/// "none", "bp" or "maxmp".
Result<BreakpointPolicy> ParseBreakpointPolicy(const std::string& text);

/// Parameters for PiecewiseTransform::Create.
struct PiecewiseOptions {
  BreakpointPolicy policy = BreakpointPolicy::kChooseMaxMP;

  /// Desired minimum number of breakpoints w (the paper's experiments use
  /// a minimum of 20). ChooseMaxMP may exceed it; both procedures return
  /// fewer only if the domain runs out of values.
  size_t min_breakpoints = 20;

  /// Monochromatic pieces narrower than this are transformed monotonically
  /// instead of bijectively (paper Section 5.2, "minimum width threshold").
  size_t min_mono_width = 2;

  /// Use F_bi (random bijections) on qualifying monochromatic pieces.
  /// Only effective under kChooseMaxMP; ChooseBP in the paper's experiments
  /// transforms every piece (anti-)monotonically.
  bool exploit_monochromatic = true;

  /// Function family for non-monochromatic pieces.
  FamilyOptions family;

  /// Direction of the global invariant: false = global-monotone
  /// (Definition 8's first form), true = global-anti-monotone.
  bool global_anti_monotone = false;

  /// The transformed dynamic range's width is the original width times a
  /// factor drawn uniformly from this interval...
  double out_width_factor_min = 0.6;
  double out_width_factor_max = 1.8;
  /// ...and its start is the original minimum plus this (fractional) random
  /// offset times the original width. Keeping the transformed range a
  /// plausible magnitude is what makes T' "look realistic enough that a
  /// hacker may not even know that it is encoded" (Section 1).
  double out_offset_min = -0.5;
  double out_offset_max = 0.5;

  /// Fraction of the output width reserved for the random gaps between
  /// consecutive piece intervals.
  double gap_fraction = 0.05;

  /// Skew of the recursive stick-breaking that allocates per-piece output
  /// intervals: at every recursion level the current interval is cut at a
  /// fraction drawn from [0.5 - skew/2, 0.5 + skew/2], independently of
  /// how many values each half holds. This yields a multifractal
  /// allocation whose relative distortion persists at *every* scale, so
  /// the aggregate transform stays far from affine no matter how many
  /// pieces there are — with proportional (or i.i.d.-width) allocation,
  /// large piece counts would average out and a handful of knowledge
  /// points could interpolate the whole map. 0 makes all intervals equal
  /// (the hacker-friendly degenerate case; see the ablation bench).
  double width_split_skew = 0.9;
};

/// One attribute's piecewise transformation: an ordered list of pieces,
/// each owning a domain interval, a disjoint output interval, and an
/// invertible function between them.
///
/// Copyable (pieces clone their functions) and movable.
class PiecewiseTransform {
 public:
  struct Piece {
    AttrValue domain_lo = 0;  ///< smallest active-domain value of the piece
    AttrValue domain_hi = 0;  ///< largest active-domain value of the piece
    AttrValue out_lo = 0;     ///< smallest image over the piece
    AttrValue out_hi = 0;     ///< largest image over the piece
    bool bijective = false;   ///< F_bi (permutation) piece
    std::unique_ptr<Transformation> fn;

    Piece() = default;
    Piece(const Piece& other);
    Piece& operator=(const Piece& other);
    Piece(Piece&&) = default;
    Piece& operator=(Piece&&) = default;
  };

  /// Decoded split threshold: the original-space value plus whether the
  /// transformation reverses order in the threshold's neighborhood (in
  /// which case a decoded tree node must swap its subtrees).
  struct ThresholdDecode {
    AttrValue value = 0;
    bool order_reversed = false;
  };

  PiecewiseTransform() = default;

  /// Builds a randomized transform for the attribute described by
  /// `summary`, which must be non-empty.
  static PiecewiseTransform Create(const AttributeSummary& summary,
                                   const PiecewiseOptions& options, Rng& rng);

  /// Reassembles a transform from explicit pieces (deserialization).
  /// Pieces must be in domain order with non-overlapping, increasing
  /// domain intervals; their output intervals must respect the global
  /// direction. Each piece must carry a function.
  static PiecewiseTransform FromPieces(std::vector<Piece> pieces,
                                       bool global_anti_monotone);

  /// Encodes a value. Exact for active-domain values; other values map
  /// monotonically into the induced gaps (bijective pieces snap to the
  /// nearest domain value).
  AttrValue Apply(AttrValue x) const;

  /// Decodes a transformed value; exact inverse of Apply on images of
  /// active-domain values.
  AttrValue Inverse(AttrValue y) const;

  /// Decodes a split threshold of a tree mined from transformed data:
  /// returns the original-space threshold and the local order direction.
  ThresholdDecode InverseThreshold(AttrValue y) const;

  size_t NumPieces() const { return pieces_.size(); }
  const Piece& piece(size_t i) const;
  bool global_anti_monotone() const { return global_anti_; }

  /// Verifies Definition 8 against the actual images of `summary`'s
  /// values: consecutive pieces' image ranges must be strictly ordered in
  /// the global direction and all images distinct. Returns true iff the
  /// invariant holds.
  bool SatisfiesGlobalInvariant(const AttributeSummary& summary) const;

  /// The custodian's decoding key, rendered for inspection: breakpoint
  /// locations and the function used in every piece (what Section 5.4 says
  /// the custodian must keep).
  std::string Describe() const;

 private:
  /// Pieces in *domain* order (piece 0 holds the smallest values).
  std::vector<Piece> pieces_;
  bool global_anti_ = false;

  /// Index of the piece whose domain contains (or is nearest below) x.
  size_t DomainPieceIndex(AttrValue x) const;
  /// Piece index by output location, or npos when y falls in a gap;
  /// `gap_after` then identifies the piece (in output order) before y.
  static constexpr size_t npos = static_cast<size_t>(-1);
  size_t OutputPieceIndex(AttrValue y, size_t* gap_after) const;
  /// Pieces in output order = domain order, reversed when global-anti.
  size_t OutputOrderToDomainIndex(size_t k) const;
};

}  // namespace popp

#endif  // POPP_TRANSFORM_PIECEWISE_H_

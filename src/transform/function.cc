#include "transform/function.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/decimal.h"
#include "util/status.h"

namespace popp {
namespace {

double Clamp01(double t) { return std::min(1.0, std::max(0.0, t)); }

/// Nearest element of sorted `xs` to `probe` (ties to the smaller value).
AttrValue Nearest(const std::vector<AttrValue>& xs, AttrValue probe) {
  POPP_CHECK(!xs.empty());
  auto it = std::lower_bound(xs.begin(), xs.end(), probe);
  if (it == xs.begin()) return *it;
  if (it == xs.end()) return xs.back();
  const AttrValue hi = *it;
  const AttrValue lo = *(it - 1);
  return (probe - lo) <= (hi - probe) ? lo : hi;
}

}  // namespace

std::string ToString(FunctionKind kind) {
  switch (kind) {
    case FunctionKind::kMonotone:
      return "monotone";
    case FunctionKind::kAntiMonotone:
      return "anti-monotone";
    case FunctionKind::kBijective:
      return "bijective";
  }
  return "?";
}

// ---------------------------------------------------------------- shapes --

PowerShape::PowerShape(double exponent) : exponent_(exponent) {
  POPP_CHECK_MSG(exponent > 0.0, "PowerShape exponent must be > 0");
}

double PowerShape::Forward(double t) const {
  return std::pow(Clamp01(t), exponent_);
}

double PowerShape::Backward(double s) const {
  return std::pow(Clamp01(s), 1.0 / exponent_);
}

std::string PowerShape::Name() const {
  std::ostringstream oss;
  oss << "power(" << exponent_ << ")";
  return oss.str();
}

std::string PowerShape::Serialize() const {
  return "power " + FormatDouble17(exponent_);
}

LogShape::LogShape(double alpha) : alpha_(alpha) {
  POPP_CHECK_MSG(alpha > 0.0, "LogShape alpha must be > 0");
}

double LogShape::Forward(double t) const {
  return std::log1p(alpha_ * Clamp01(t)) / std::log1p(alpha_);
}

double LogShape::Backward(double s) const {
  return std::expm1(Clamp01(s) * std::log1p(alpha_)) / alpha_;
}

std::string LogShape::Name() const {
  std::ostringstream oss;
  oss << "log(" << alpha_ << ")";
  return oss.str();
}

std::string LogShape::Serialize() const {
  return "log " + FormatDouble17(alpha_);
}

SqrtLogShape::SqrtLogShape(double alpha) : alpha_(alpha) {
  POPP_CHECK_MSG(alpha > 0.0, "SqrtLogShape alpha must be > 0");
}

double SqrtLogShape::Forward(double t) const {
  return std::sqrt(std::log1p(alpha_ * Clamp01(t)) / std::log1p(alpha_));
}

double SqrtLogShape::Backward(double s) const {
  const double clamped = Clamp01(s);
  return std::expm1(clamped * clamped * std::log1p(alpha_)) / alpha_;
}

std::string SqrtLogShape::Name() const {
  std::ostringstream oss;
  oss << "sqrt(log(" << alpha_ << "))";
  return oss.str();
}

std::string SqrtLogShape::Serialize() const {
  return "sqrtlog " + FormatDouble17(alpha_);
}

// ------------------------------------------------------ RescaledFunction --

RescaledFunction::RescaledFunction(std::unique_ptr<ShapeFunction> shape,
                                   AttrValue dlo, AttrValue dhi, AttrValue olo,
                                   AttrValue ohi, bool anti_monotone)
    : shape_(std::move(shape)),
      dlo_(dlo),
      dhi_(dhi),
      olo_(olo),
      ohi_(ohi),
      anti_(anti_monotone) {
  POPP_CHECK(shape_ != nullptr);
  POPP_CHECK_MSG(dlo_ < dhi_, "RescaledFunction: empty domain interval");
  POPP_CHECK_MSG(olo_ < ohi_, "RescaledFunction: empty output interval");
}

AttrValue RescaledFunction::Apply(AttrValue x) const {
  const double t = Clamp01((x - dlo_) / (dhi_ - dlo_));
  const double s = shape_->Forward(t);
  const double y = anti_ ? ohi_ - (ohi_ - olo_) * s : olo_ + (ohi_ - olo_) * s;
  // Rounding in `interval_end - width * 1.0` can land an endpoint's image an
  // ulp outside [olo_, ohi_]; piece routing would then misread it as lying
  // in the inter-piece gap, so pin the result to the interval.
  return std::min(ohi_, std::max(olo_, y));
}

AttrValue RescaledFunction::Inverse(AttrValue y) const {
  const double s =
      Clamp01(anti_ ? (ohi_ - y) / (ohi_ - olo_) : (y - olo_) / (ohi_ - olo_));
  const double t = shape_->Backward(s);
  const double x = dlo_ + t * (dhi_ - dlo_);
  return std::min(dhi_, std::max(dlo_, x));
}

std::string RescaledFunction::Describe() const {
  std::ostringstream oss;
  oss << (anti_ ? "anti:" : "mono:") << shape_->Name() << " [" << dlo_ << ","
      << dhi_ << "]->[" << olo_ << "," << ohi_ << "]";
  return oss.str();
}

std::unique_ptr<Transformation> RescaledFunction::Clone() const {
  return std::make_unique<RescaledFunction>(shape_->Clone(), dlo_, dhi_, olo_,
                                            ohi_, anti_);
}

// --------------------------------------------------- PermutationFunction --

PermutationFunction::PermutationFunction(std::vector<AttrValue> domain,
                                         std::vector<AttrValue> image)
    : domain_(std::move(domain)), image_(std::move(image)) {
  POPP_CHECK_MSG(!domain_.empty(), "PermutationFunction: empty domain");
  POPP_CHECK_MSG(domain_.size() == image_.size(),
                 "PermutationFunction: |domain| != |image|");
  for (size_t i = 1; i < domain_.size(); ++i) {
    POPP_CHECK_MSG(domain_[i - 1] < domain_[i],
                   "PermutationFunction: domain must be strictly increasing");
  }
  by_image_.reserve(image_.size());
  for (size_t i = 0; i < image_.size(); ++i) {
    by_image_.emplace_back(image_[i], domain_[i]);
  }
  std::sort(by_image_.begin(), by_image_.end());
  for (size_t i = 1; i < by_image_.size(); ++i) {
    POPP_CHECK_MSG(by_image_[i - 1].first < by_image_[i].first,
                   "PermutationFunction: image values must be distinct");
  }
}

AttrValue PermutationFunction::Apply(AttrValue x) const {
  auto it = std::lower_bound(domain_.begin(), domain_.end(), x);
  if (it != domain_.end() && *it == x) {
    return image_[static_cast<size_t>(it - domain_.begin())];
  }
  // Non-active-domain probe: snap to the nearest domain value.
  const AttrValue snapped = Nearest(domain_, x);
  auto jt = std::lower_bound(domain_.begin(), domain_.end(), snapped);
  return image_[static_cast<size_t>(jt - domain_.begin())];
}

AttrValue PermutationFunction::Inverse(AttrValue y) const {
  auto it = std::lower_bound(
      by_image_.begin(), by_image_.end(), y,
      [](const auto& pair, AttrValue v) { return pair.first < v; });
  if (it != by_image_.end() && it->first == y) {
    return it->second;
  }
  // Snap to nearest image value.
  if (it == by_image_.begin()) return it->second;
  if (it == by_image_.end()) return (it - 1)->second;
  const auto& hi = *it;
  const auto& lo = *(it - 1);
  return (y - lo.first) <= (hi.first - y) ? lo.second : hi.second;
}

std::string PermutationFunction::Describe() const {
  std::ostringstream oss;
  oss << "perm(" << domain_.size() << " values) [" << domain_.front() << ","
      << domain_.back() << "]";
  return oss.str();
}

std::unique_ptr<Transformation> PermutationFunction::Clone() const {
  return std::make_unique<PermutationFunction>(domain_, image_);
}

}  // namespace popp

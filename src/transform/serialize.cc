#include "transform/serialize.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "fault/file.h"
#include "transform/piecewise.h"
#include "util/decimal.h"
#include "util/integrity.h"

namespace popp {
namespace {

/// Minimal whitespace tokenizer with typed reads and error context.
///
/// Parsing is adversarial: the document may be corrupt or hostile, so
/// every count is sanity-capped by the document size (a well-formed
/// document spends at least two bytes per counted item) before any
/// allocation happens.
class Reader {
 public:
  explicit Reader(const std::string& text)
      : in_(text), count_limit_(text.size()) {}

  Result<std::string> Word(const char* what) {
    std::string token;
    if (!(in_ >> token)) {
      return Status::InvalidArgument(std::string("expected ") + what +
                                     ", got end of input");
    }
    return token;
  }

  Status Expect(const std::string& literal) {
    auto word = Word(literal.c_str());
    POPP_RETURN_IF_ERROR(word.status());
    if (word.value() != literal) {
      return Status::InvalidArgument("expected '" + literal + "', got '" +
                                     word.value() + "'");
    }
    return Status::Ok();
  }

  /// Accepts anything strtod does — the %.17g decimals Num emits and also
  /// C99 hex-floats ("0x1.91eb851eb851fp+1"), so externally produced keys
  /// may spell endpoints in either exact form.
  Result<double> Number(const char* what) {
    auto word = Word(what);
    if (!word.ok()) return word.status();
    char* end = nullptr;
    const double v = std::strtod(word.value().c_str(), &end);
    if (end == word.value().c_str() || *end != '\0') {
      return Status::InvalidArgument(std::string("bad number for ") + what +
                                     ": '" + word.value() + "'");
    }
    return v;
  }

  Result<size_t> Count(const char* what) {
    auto v = Number(what);
    if (!v.ok()) return v.status();
    if (v.value() < 0 || v.value() != static_cast<size_t>(v.value())) {
      return Status::InvalidArgument(std::string("bad count for ") + what);
    }
    const size_t count = static_cast<size_t>(v.value());
    if (count > count_limit_) {
      std::ostringstream oss;
      oss << "implausible count for " << what << " (" << count
          << " exceeds document size " << count_limit_ << ")";
      return Status::InvalidArgument(oss.str());
    }
    return count;
  }

 private:
  std::istringstream in_;
  size_t count_limit_;
};

void SerializeFunction(const Transformation& fn, std::ostringstream& out) {
  if (fn.kind() == FunctionKind::kBijective) {
    const auto& perm = static_cast<const PermutationFunction&>(fn);
    out << "perm " << perm.size() << "\n";
    for (size_t i = 0; i < perm.size(); ++i) {
      out << FormatDouble17(perm.domain()[i]) << " "
          << FormatDouble17(perm.image()[i]) << "\n";
    }
    return;
  }
  const auto& rescaled = static_cast<const RescaledFunction&>(fn);
  out << "rescaled " << rescaled.shape().Serialize() << " "
      << FormatDouble17(rescaled.dlo()) << " "
      << FormatDouble17(rescaled.dhi()) << " "
      << FormatDouble17(rescaled.olo()) << " "
      << FormatDouble17(rescaled.ohi()) << " "
      << (rescaled.anti_monotone() ? 1 : 0) << "\n";
}

/// Parses and fully validates one transformation. The constructors treat
/// invariant violations as programmer errors (they abort), so a document
/// that came off a disk must prove every invariant here first.
Result<std::unique_ptr<Transformation>> ParseFunction(Reader& reader) {
  auto kind = reader.Word("function kind");
  if (!kind.ok()) return kind.status();
  if (kind.value() == "perm") {
    auto count = reader.Count("perm size");
    if (!count.ok()) return count.status();
    if (count.value() == 0) {
      return Status::InvalidArgument("empty permutation");
    }
    std::vector<AttrValue> domain(count.value()), image(count.value());
    for (size_t i = 0; i < count.value(); ++i) {
      auto d = reader.Number("perm domain value");
      if (!d.ok()) return d.status();
      auto m = reader.Number("perm image value");
      if (!m.ok()) return m.status();
      if (!std::isfinite(d.value()) || !std::isfinite(m.value())) {
        return Status::InvalidArgument(
            "non-finite value in permutation entry");
      }
      domain[i] = d.value();
      image[i] = m.value();
    }
    for (size_t i = 1; i < domain.size(); ++i) {
      if (!(domain[i - 1] < domain[i])) {
        return Status::InvalidArgument(
            "permutation domain not strictly increasing");
      }
    }
    std::vector<AttrValue> sorted_image = image;
    std::sort(sorted_image.begin(), sorted_image.end());
    for (size_t i = 1; i < sorted_image.size(); ++i) {
      if (!(sorted_image[i - 1] < sorted_image[i])) {
        return Status::InvalidArgument(
            "permutation image values not distinct");
      }
    }
    return {std::make_unique<PermutationFunction>(std::move(domain),
                                                  std::move(image))};
  }
  if (kind.value() == "rescaled") {
    auto shape_name = reader.Word("shape name");
    if (!shape_name.ok()) return shape_name.status();
    std::string token = shape_name.value();
    if (token != "linear") {
      auto param = reader.Number("shape parameter");
      if (!param.ok()) return param.status();
      token += " " + FormatDouble17(param.value());
    }
    auto shape = ParseShape(token);
    if (!shape.ok()) return shape.status();
    auto dlo = reader.Number("dlo");
    if (!dlo.ok()) return dlo.status();
    auto dhi = reader.Number("dhi");
    if (!dhi.ok()) return dhi.status();
    auto olo = reader.Number("olo");
    if (!olo.ok()) return olo.status();
    auto ohi = reader.Number("ohi");
    if (!ohi.ok()) return ohi.status();
    auto anti = reader.Number("anti flag");
    if (!anti.ok()) return anti.status();
    if (!(dlo.value() < dhi.value())) {
      return Status::InvalidArgument(
          "rescaled function has an empty domain interval");
    }
    if (!(olo.value() < ohi.value())) {
      return Status::InvalidArgument(
          "rescaled function has an empty output interval");
    }
    return {std::make_unique<RescaledFunction>(
        std::move(shape).value(), dlo.value(), dhi.value(), olo.value(),
        ohi.value(), anti.value() != 0.0)};
  }
  return Status::InvalidArgument("unknown function kind '" + kind.value() +
                                 "'");
}

/// Body parser over a footer-stripped payload. Reports failures as
/// kInvalidArgument; the public entry point rebrands them kDataLoss (a
/// document that fails to parse is untrustworthy bytes, whatever the
/// detail).
Result<TransformPlan> ParsePlanPayload(const std::string& payload,
                                       bool had_footer) {
  Reader reader(payload);
  POPP_RETURN_IF_ERROR(reader.Expect("popp-plan"));
  auto version = reader.Word("format version");
  if (!version.ok()) return version.status();
  if (version.value() == "v2") {
    if (!had_footer) {
      return Status::InvalidArgument(
          "popp-plan v2 requires an integrity footer and none was found — "
          "file truncated?");
    }
  } else if (version.value() != "v1") {
    return Status::InvalidArgument("unsupported popp-plan version '" +
                                   version.value() + "'");
  }
  POPP_RETURN_IF_ERROR(reader.Expect("attributes"));
  auto num_attrs = reader.Count("attribute count");
  if (!num_attrs.ok()) return num_attrs.status();
  if (num_attrs.value() == 0) {
    return Status::InvalidArgument("plan has no attributes");
  }

  std::vector<PiecewiseTransform> transforms;
  transforms.reserve(num_attrs.value());
  for (size_t attr = 0; attr < num_attrs.value(); ++attr) {
    POPP_RETURN_IF_ERROR(reader.Expect("attribute"));
    auto index = reader.Count("attribute index");
    if (!index.ok()) return index.status();
    if (index.value() != attr) {
      return Status::InvalidArgument("attribute indices out of order");
    }
    POPP_RETURN_IF_ERROR(reader.Expect("pieces"));
    auto num_pieces = reader.Count("piece count");
    if (!num_pieces.ok()) return num_pieces.status();
    if (num_pieces.value() == 0) {
      std::ostringstream oss;
      oss << "attribute " << attr << " has no pieces";
      return Status::InvalidArgument(oss.str());
    }
    POPP_RETURN_IF_ERROR(reader.Expect("global_anti"));
    auto anti = reader.Count("global_anti flag");
    if (!anti.ok()) return anti.status();
    const bool global_anti = anti.value() != 0;

    std::vector<PiecewiseTransform::Piece> pieces(num_pieces.value());
    for (size_t p = 0; p < pieces.size(); ++p) {
      auto& piece = pieces[p];
      POPP_RETURN_IF_ERROR(reader.Expect("piece"));
      auto dlo = reader.Number("piece domain_lo");
      if (!dlo.ok()) return dlo.status();
      auto dhi = reader.Number("piece domain_hi");
      if (!dhi.ok()) return dhi.status();
      auto olo = reader.Number("piece out_lo");
      if (!olo.ok()) return olo.status();
      auto ohi = reader.Number("piece out_hi");
      if (!ohi.ok()) return ohi.status();
      auto bijective = reader.Count("piece bijective flag");
      if (!bijective.ok()) return bijective.status();
      piece.domain_lo = dlo.value();
      piece.domain_hi = dhi.value();
      piece.out_lo = olo.value();
      piece.out_hi = ohi.value();
      piece.bijective = bijective.value() != 0;
      // Mirror the FromPieces invariants (which abort on violation): piece
      // intervals must be well-formed, domains disjoint and increasing,
      // outputs ordered according to the global monotonicity direction.
      // The negated comparisons also reject NaN endpoints.
      if (!(piece.domain_lo <= piece.domain_hi)) {
        return Status::InvalidArgument("piece has an empty domain interval");
      }
      if (p > 0) {
        const auto& prev = pieces[p - 1];
        if (!(prev.domain_hi < piece.domain_lo)) {
          return Status::InvalidArgument(
              "piece domains overlap or are out of order");
        }
        if (!global_anti && !(prev.out_hi < piece.out_lo)) {
          return Status::InvalidArgument(
              "piece outputs out of order for a monotone transform");
        }
        if (global_anti && !(prev.out_lo > piece.out_hi)) {
          return Status::InvalidArgument(
              "piece outputs out of order for an anti-monotone transform");
        }
      }
      auto fn = ParseFunction(reader);
      if (!fn.ok()) return fn.status();
      piece.fn = std::move(fn).value();
    }
    transforms.push_back(
        PiecewiseTransform::FromPieces(std::move(pieces), global_anti));
  }
  return TransformPlan::FromTransforms(std::move(transforms));
}

}  // namespace

Result<std::unique_ptr<ShapeFunction>> ParseShape(const std::string& token) {
  std::istringstream in(token);
  std::string name;
  in >> name;
  if (name == "linear") {
    return {std::make_unique<IdentityShape>()};
  }
  double param = 0;
  if (!(in >> param) || !(param > 0.0)) {
    return Status::InvalidArgument("bad shape parameter in '" + token + "'");
  }
  if (name == "power") return {std::make_unique<PowerShape>(param)};
  if (name == "log") return {std::make_unique<LogShape>(param)};
  if (name == "sqrtlog") return {std::make_unique<SqrtLogShape>(param)};
  return Status::InvalidArgument("unknown shape '" + name + "'");
}

std::string SerializePlan(const TransformPlan& plan) {
  std::ostringstream out;
  out << "popp-plan v2\n";
  out << "attributes " << plan.NumAttributes() << "\n";
  for (size_t attr = 0; attr < plan.NumAttributes(); ++attr) {
    const PiecewiseTransform& f = plan.transform(attr);
    out << "attribute " << attr << " pieces " << f.NumPieces()
        << " global_anti " << (f.global_anti_monotone() ? 1 : 0) << "\n";
    for (size_t p = 0; p < f.NumPieces(); ++p) {
      const auto& piece = f.piece(p);
      out << "piece " << FormatDouble17(piece.domain_lo) << " "
          << FormatDouble17(piece.domain_hi) << " "
          << FormatDouble17(piece.out_lo) << " "
          << FormatDouble17(piece.out_hi) << " "
          << (piece.bijective ? 1 : 0) << "\n";
      SerializeFunction(*piece.fn, out);
    }
  }
  return WithIntegrityFooter(out.str());
}

Result<TransformPlan> ParsePlan(const std::string& text) {
  bool had_footer = false;
  auto payload = VerifyIntegrityFooter(text, &had_footer);
  if (!payload.ok()) return payload.status();
  auto plan = ParsePlanPayload(std::string(payload.value()), had_footer);
  if (!plan.ok()) {
    // Whatever the parse-level detail, the document as a whole is
    // untrustworthy: report it under the integrity taxonomy.
    return Status::DataLoss(plan.status().message());
  }
  return plan;
}

Status SavePlan(const TransformPlan& plan, const std::string& path) {
  return fault::WriteFileAtomic(path, SerializePlan(plan));
}

Result<TransformPlan> LoadPlan(const std::string& path) {
  auto text = fault::ReadFileToString(path);
  if (!text.ok()) return text.status();
  auto plan = ParsePlan(text.value());
  if (!plan.ok()) {
    return Status(plan.status().code(),
                  "key file '" + path + "': " + plan.status().message());
  }
  return plan;
}

}  // namespace popp

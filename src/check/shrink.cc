#include "check/shrink.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "data/csv.h"
#include "fault/file.h"
#include "util/decimal.h"

namespace popp::check {
namespace {

const char* ShapeChoiceName(FamilyOptions::ShapeChoice choice) {
  switch (choice) {
    case FamilyOptions::ShapeChoice::kRandom: return "random";
    case FamilyOptions::ShapeChoice::kLinear: return "linear";
    case FamilyOptions::ShapeChoice::kPolynomial: return "polynomial";
    case FamilyOptions::ShapeChoice::kLog: return "log";
    case FamilyOptions::ShapeChoice::kSqrtLog: return "sqrtlog";
  }
  return "random";
}

/// Whitespace tokenizer mirroring the one in transform/serialize.cc.
class Reader {
 public:
  explicit Reader(const std::string& text) : in_(text) {}

  Result<std::string> Word(const char* what) {
    std::string token;
    if (!(in_ >> token)) {
      return Status::InvalidArgument(std::string("recipe: expected ") + what +
                                     ", got end of input");
    }
    return token;
  }

  Status Expect(const std::string& literal) {
    auto word = Word(literal.c_str());
    POPP_RETURN_IF_ERROR(word.status());
    if (word.value() != literal) {
      return Status::InvalidArgument("recipe: expected '" + literal +
                                     "', got '" + word.value() + "'");
    }
    return Status::Ok();
  }

  Result<double> Number(const char* what) {
    auto word = Word(what);
    if (!word.ok()) return word.status();
    char* end = nullptr;
    const double v = std::strtod(word.value().c_str(), &end);
    if (end == word.value().c_str() || *end != '\0') {
      return Status::InvalidArgument(std::string("recipe: bad number for ") +
                                     what + ": '" + word.value() + "'");
    }
    return v;
  }

  /// A count or seed: a whole unsigned decimal (`ParseDecimalU64`).
  Result<uint64_t> Count(const char* what) {
    auto word = Word(what);
    if (!word.ok()) return word.status();
    uint64_t v = 0;
    if (!ParseDecimalU64(word.value(), &v)) {
      return Status::InvalidArgument(std::string("recipe: ") + what +
                                     " must be a whole unsigned decimal, "
                                     "got '" + word.value() + "'");
    }
    return v;
  }

  /// `count` words, read one at a time, so the text's end bounds them.
  Result<std::vector<std::string>> Words(uint64_t count, const char* what) {
    std::vector<std::string> words;
    for (uint64_t i = 0; i < count; ++i) {
      auto word = Word(what);
      if (!word.ok()) return word.status();
      words.push_back(std::move(word).value());
    }
    return words;
  }

  /// The remainder of the current line (for the free-form message field).
  std::string RestOfLine() {
    std::string rest;
    std::getline(in_, rest);
    while (!rest.empty() && (rest.front() == ' ' || rest.front() == '\t')) {
      rest.erase(rest.begin());
    }
    return rest;
  }

 private:
  std::istringstream in_;
};

void SerializeTransformOptions(const PiecewiseOptions& o,
                               std::ostringstream& out) {
  out << "transform policy " << ToString(o.policy) << " min_breakpoints "
      << o.min_breakpoints << " min_mono_width " << o.min_mono_width
      << " exploit_mono " << (o.exploit_monochromatic ? 1 : 0)
      << " global_anti " << (o.global_anti_monotone ? 1 : 0) << " shape "
      << ShapeChoiceName(o.family.forced_shape) << " allow "
      << (o.family.allow_linear ? 1 : 0) << " "
      << (o.family.allow_polynomial ? 1 : 0) << " "
      << (o.family.allow_log ? 1 : 0) << " "
      << (o.family.allow_sqrt_log ? 1 : 0) << " power "
      << FormatDouble17(o.family.min_power) << " "
      << FormatDouble17(o.family.max_power) << " alpha "
      << FormatDouble17(o.family.min_alpha) << " "
      << FormatDouble17(o.family.max_alpha) << " anti_prob "
      << FormatDouble17(o.family.anti_monotone_prob) << " out_width "
      << FormatDouble17(o.out_width_factor_min) << " "
      << FormatDouble17(o.out_width_factor_max) << " out_offset "
      << FormatDouble17(o.out_offset_min) << " "
      << FormatDouble17(o.out_offset_max) << " gap "
      << FormatDouble17(o.gap_fraction) << " skew "
      << FormatDouble17(o.width_split_skew) << "\n";
}

Status ParseTransformOptions(Reader& reader, PiecewiseOptions& o) {
  POPP_RETURN_IF_ERROR(reader.Expect("transform"));
  POPP_RETURN_IF_ERROR(reader.Expect("policy"));
  auto policy = reader.Word("policy");
  if (!policy.ok()) return policy.status();
  if (policy.value() == "none") {
    o.policy = BreakpointPolicy::kNone;
  } else if (policy.value() == "ChooseBP") {
    o.policy = BreakpointPolicy::kChooseBP;
  } else if (policy.value() == "ChooseMaxMP") {
    o.policy = BreakpointPolicy::kChooseMaxMP;
  } else {
    return Status::InvalidArgument("recipe: unknown policy '" +
                                   policy.value() + "'");
  }
  POPP_RETURN_IF_ERROR(reader.Expect("min_breakpoints"));
  auto bp = reader.Count("min_breakpoints");
  if (!bp.ok()) return bp.status();
  o.min_breakpoints = bp.value();
  POPP_RETURN_IF_ERROR(reader.Expect("min_mono_width"));
  auto width = reader.Count("min_mono_width");
  if (!width.ok()) return width.status();
  o.min_mono_width = width.value();
  POPP_RETURN_IF_ERROR(reader.Expect("exploit_mono"));
  auto exploit = reader.Count("exploit_mono");
  if (!exploit.ok()) return exploit.status();
  o.exploit_monochromatic = exploit.value() != 0;
  POPP_RETURN_IF_ERROR(reader.Expect("global_anti"));
  auto anti = reader.Count("global_anti");
  if (!anti.ok()) return anti.status();
  o.global_anti_monotone = anti.value() != 0;
  POPP_RETURN_IF_ERROR(reader.Expect("shape"));
  auto shape = reader.Word("shape");
  if (!shape.ok()) return shape.status();
  if (shape.value() == "random") {
    o.family.forced_shape = FamilyOptions::ShapeChoice::kRandom;
  } else if (shape.value() == "linear") {
    o.family.forced_shape = FamilyOptions::ShapeChoice::kLinear;
  } else if (shape.value() == "polynomial") {
    o.family.forced_shape = FamilyOptions::ShapeChoice::kPolynomial;
  } else if (shape.value() == "log") {
    o.family.forced_shape = FamilyOptions::ShapeChoice::kLog;
  } else if (shape.value() == "sqrtlog") {
    o.family.forced_shape = FamilyOptions::ShapeChoice::kSqrtLog;
  } else {
    return Status::InvalidArgument("recipe: unknown shape '" + shape.value() +
                                   "'");
  }
  POPP_RETURN_IF_ERROR(reader.Expect("allow"));
  for (bool* flag : {&o.family.allow_linear, &o.family.allow_polynomial,
                     &o.family.allow_log, &o.family.allow_sqrt_log}) {
    auto v = reader.Count("allow flag");
    if (!v.ok()) return v.status();
    *flag = v.value() != 0;
  }
  POPP_RETURN_IF_ERROR(reader.Expect("power"));
  for (double* field : {&o.family.min_power, &o.family.max_power}) {
    auto v = reader.Number("power bound");
    if (!v.ok()) return v.status();
    *field = v.value();
  }
  POPP_RETURN_IF_ERROR(reader.Expect("alpha"));
  for (double* field : {&o.family.min_alpha, &o.family.max_alpha}) {
    auto v = reader.Number("alpha bound");
    if (!v.ok()) return v.status();
    *field = v.value();
  }
  POPP_RETURN_IF_ERROR(reader.Expect("anti_prob"));
  auto prob = reader.Number("anti_prob");
  if (!prob.ok()) return prob.status();
  o.family.anti_monotone_prob = prob.value();
  POPP_RETURN_IF_ERROR(reader.Expect("out_width"));
  for (double* field : {&o.out_width_factor_min, &o.out_width_factor_max}) {
    auto v = reader.Number("out_width bound");
    if (!v.ok()) return v.status();
    *field = v.value();
  }
  POPP_RETURN_IF_ERROR(reader.Expect("out_offset"));
  for (double* field : {&o.out_offset_min, &o.out_offset_max}) {
    auto v = reader.Number("out_offset bound");
    if (!v.ok()) return v.status();
    *field = v.value();
  }
  POPP_RETURN_IF_ERROR(reader.Expect("gap"));
  auto gap = reader.Number("gap");
  if (!gap.ok()) return gap.status();
  o.gap_fraction = gap.value();
  POPP_RETURN_IF_ERROR(reader.Expect("skew"));
  auto skew = reader.Number("skew");
  if (!skew.ok()) return skew.status();
  o.width_split_skew = skew.value();
  return Status::Ok();
}

void SerializeBuildOptions(const BuildOptions& o, std::ostringstream& out) {
  out << "build criterion " << ToString(o.criterion) << " max_depth "
      << o.max_depth << " min_split_size " << o.min_split_size
      << " min_leaf_size " << o.min_leaf_size << " min_impurity_decrease "
      << FormatDouble17(o.min_impurity_decrease) << " candidates "
      << (o.candidate_mode == BuildOptions::CandidateMode::kAllBoundaries
              ? "all"
              : "runs")
      << " algorithm "
      << (o.algorithm == BuildOptions::Algorithm::kResort ? "resort"
                                                          : "frontier")
      << "\n";
}

Status ParseBuildOptions(Reader& reader, BuildOptions& o) {
  POPP_RETURN_IF_ERROR(reader.Expect("build"));
  POPP_RETURN_IF_ERROR(reader.Expect("criterion"));
  auto criterion = reader.Word("criterion");
  if (!criterion.ok()) return criterion.status();
  if (criterion.value() == "gini") {
    o.criterion = SplitCriterion::kGini;
  } else if (criterion.value() == "entropy") {
    o.criterion = SplitCriterion::kEntropy;
  } else if (criterion.value() == "gain-ratio") {
    o.criterion = SplitCriterion::kGainRatio;
  } else {
    return Status::InvalidArgument("recipe: unknown criterion '" +
                                   criterion.value() + "'");
  }
  POPP_RETURN_IF_ERROR(reader.Expect("max_depth"));
  auto depth = reader.Count("max_depth");
  if (!depth.ok()) return depth.status();
  o.max_depth = depth.value();
  POPP_RETURN_IF_ERROR(reader.Expect("min_split_size"));
  auto split = reader.Count("min_split_size");
  if (!split.ok()) return split.status();
  o.min_split_size = split.value();
  POPP_RETURN_IF_ERROR(reader.Expect("min_leaf_size"));
  auto leaf = reader.Count("min_leaf_size");
  if (!leaf.ok()) return leaf.status();
  o.min_leaf_size = leaf.value();
  POPP_RETURN_IF_ERROR(reader.Expect("min_impurity_decrease"));
  auto improve = reader.Number("min_impurity_decrease");
  if (!improve.ok()) return improve.status();
  o.min_impurity_decrease = improve.value();
  POPP_RETURN_IF_ERROR(reader.Expect("candidates"));
  auto mode = reader.Word("candidates");
  if (!mode.ok()) return mode.status();
  if (mode.value() == "all") {
    o.candidate_mode = BuildOptions::CandidateMode::kAllBoundaries;
  } else if (mode.value() == "runs") {
    o.candidate_mode = BuildOptions::CandidateMode::kRunBoundaries;
  } else {
    return Status::InvalidArgument("recipe: unknown candidate mode '" +
                                   mode.value() + "'");
  }
  POPP_RETURN_IF_ERROR(reader.Expect("algorithm"));
  auto algorithm = reader.Word("algorithm");
  if (!algorithm.ok()) return algorithm.status();
  if (algorithm.value() == "resort") {
    o.algorithm = BuildOptions::Algorithm::kResort;
  } else if (algorithm.value() == "frontier") {
    o.algorithm = BuildOptions::Algorithm::kFrontier;
  } else {
    return Status::InvalidArgument("recipe: unknown algorithm '" +
                                   algorithm.value() + "'");
  }
  return Status::Ok();
}

std::string BaseName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

std::string OneLine(std::string text) {
  for (auto& ch : text) {
    if (ch == '\n' || ch == '\r') ch = ' ';
  }
  return text;
}

/// Tries `candidate` and commits it to `current` if the failure persists.
bool TryCandidate(TrialCase& current, TrialCase candidate,
                  const FailurePredicate& still_fails, ShrinkStats& stats) {
  ++stats.candidates_tried;
  if (!still_fails(candidate)) return false;
  ++stats.candidates_accepted;
  current = std::move(candidate);
  return true;
}

/// One delta-debugging sweep over the rows: chunks of `chunk` rows are
/// removed while the failure persists. Returns true if anything shrank.
bool ShrinkRowsAtChunk(TrialCase& current, size_t chunk,
                       const FailurePredicate& still_fails,
                       ShrinkStats& stats) {
  bool shrank = false;
  size_t start = 0;
  while (current.data.NumRows() > 1 && start < current.data.NumRows()) {
    const size_t n = current.data.NumRows();
    const size_t end = std::min(start + chunk, n);
    if (end - start >= n) break;  // must keep at least one row
    std::vector<size_t> keep;
    keep.reserve(n - (end - start));
    for (size_t r = 0; r < n; ++r) {
      if (r < start || r >= end) keep.push_back(r);
    }
    TrialCase candidate = current;
    candidate.data = current.data.Select(keep);
    if (TryCandidate(current, std::move(candidate), still_fails, stats)) {
      shrank = true;  // same start now addresses the following rows
    } else {
      start += chunk;
    }
  }
  return shrank;
}

bool ShrinkRows(TrialCase& current, const FailurePredicate& still_fails,
                ShrinkStats& stats) {
  bool shrank = false;
  for (size_t chunk = std::max<size_t>(1, current.data.NumRows() / 2);;
       chunk /= 2) {
    shrank |= ShrinkRowsAtChunk(current, chunk, still_fails, stats);
    if (chunk == 1) break;
  }
  return shrank;
}

bool ShrinkAttributes(TrialCase& current, const FailurePredicate& still_fails,
                      ShrinkStats& stats) {
  bool shrank = false;
  size_t a = 0;
  while (current.data.NumAttributes() > 1 &&
         a < current.data.NumAttributes()) {
    std::vector<size_t> keep;
    for (size_t i = 0; i < current.data.NumAttributes(); ++i) {
      if (i != a) keep.push_back(i);
    }
    TrialCase candidate = current;
    candidate.data = SelectAttributes(current.data, keep);
    if (TryCandidate(current, std::move(candidate), still_fails, stats)) {
      shrank = true;  // index a now names the next attribute
    } else {
      ++a;
    }
  }
  return shrank;
}

bool ShrinkOptions(TrialCase& current, const FailurePredicate& still_fails,
                   ShrinkStats& stats) {
  bool shrank = false;
  // Fewer breakpoints first (try zero outright, then halve).
  if (current.transform_options.min_breakpoints > 0) {
    TrialCase candidate = current;
    candidate.transform_options.min_breakpoints = 0;
    shrank |= TryCandidate(current, std::move(candidate), still_fails, stats);
  }
  while (current.transform_options.min_breakpoints > 0) {
    TrialCase candidate = current;
    candidate.transform_options.min_breakpoints /= 2;
    if (!TryCandidate(current, std::move(candidate), still_fails, stats)) {
      break;
    }
    shrank = true;
  }
  // Then simpler configurations, most-simplifying first.
  const auto try_mutation = [&](auto mutate) {
    TrialCase candidate = current;
    mutate(candidate);
    if (TryCandidate(current, std::move(candidate), still_fails, stats)) {
      shrank = true;
    }
  };
  if (current.transform_options.policy == BreakpointPolicy::kChooseMaxMP) {
    try_mutation([](TrialCase& c) {
      c.transform_options.policy = BreakpointPolicy::kChooseBP;
    });
  }
  if (current.transform_options.policy != BreakpointPolicy::kNone) {
    try_mutation([](TrialCase& c) {
      c.transform_options.policy = BreakpointPolicy::kNone;
    });
  }
  if (current.transform_options.exploit_monochromatic) {
    try_mutation([](TrialCase& c) {
      c.transform_options.exploit_monochromatic = false;
    });
  }
  if (current.transform_options.family.anti_monotone_prob > 0.0) {
    try_mutation([](TrialCase& c) {
      c.transform_options.family.anti_monotone_prob = 0.0;
    });
  }
  if (current.transform_options.global_anti_monotone) {
    try_mutation([](TrialCase& c) {
      c.transform_options.global_anti_monotone = false;
    });
  }
  return shrank;
}

}  // namespace

TrialCase ShrinkCase(TrialCase failing, const FailurePredicate& still_fails,
                     ShrinkStats* stats) {
  ShrinkStats local;
  ShrinkStats& s = stats ? *stats : local;
  POPP_CHECK_MSG(still_fails(failing),
                 "ShrinkCase: the initial case does not fail");
  bool progress = true;
  for (size_t pass = 0; progress && pass < 16; ++pass) {
    progress = false;
    progress |= ShrinkRows(failing, still_fails, s);
    progress |= ShrinkAttributes(failing, still_fails, s);
    progress |= ShrinkOptions(failing, still_fails, s);
  }
  return failing;
}

Status WriteReproducer(const Reproducer& repro, const std::string& csv_path,
                       const std::string& recipe_path) {
  POPP_RETURN_IF_ERROR(WriteCsv(repro.c.data, csv_path));
  std::ostringstream out;
  out << "popp-check-recipe v1\n";
  out << "oracle " << repro.oracle_name << "\n";
  out << "plan_seed " << repro.c.plan_seed << "\n";
  out << "csv " << BaseName(csv_path) << "\n";
  const Schema& schema = repro.c.data.schema();
  out << "attributes " << schema.NumAttributes();
  for (const auto& name : schema.attribute_names()) out << " " << name;
  out << "\n";
  out << "classes " << schema.NumClasses();
  for (const auto& name : schema.class_names()) out << " " << name;
  out << "\n";
  SerializeTransformOptions(repro.c.transform_options, out);
  SerializeBuildOptions(repro.c.build_options, out);
  out << "message " << OneLine(repro.message) << "\n";

  return fault::WriteFileAtomic(recipe_path, out.str());
}

Result<Reproducer> LoadReproducer(const std::string& recipe_path) {
  auto text = fault::ReadFileToString(recipe_path);
  if (!text.ok()) return text.status();
  Reader reader(text.value());
  POPP_RETURN_IF_ERROR(reader.Expect("popp-check-recipe"));
  POPP_RETURN_IF_ERROR(reader.Expect("v1"));

  Reproducer repro;
  POPP_RETURN_IF_ERROR(reader.Expect("oracle"));
  auto oracle = reader.Word("oracle name");
  if (!oracle.ok()) return oracle.status();
  repro.oracle_name = oracle.value();
  POPP_RETURN_IF_ERROR(reader.Expect("plan_seed"));
  auto seed = reader.Count("plan_seed");
  if (!seed.ok()) return seed.status();
  repro.c.plan_seed = seed.value();
  POPP_RETURN_IF_ERROR(reader.Expect("csv"));
  auto csv_name = reader.Word("csv file name");
  if (!csv_name.ok()) return csv_name.status();

  POPP_RETURN_IF_ERROR(reader.Expect("attributes"));
  auto num_attrs = reader.Count("attribute count");
  if (!num_attrs.ok()) return num_attrs.status();
  auto attr_names = reader.Words(num_attrs.value(), "attribute name");
  if (!attr_names.ok()) return attr_names.status();
  POPP_RETURN_IF_ERROR(reader.Expect("classes"));
  auto num_classes = reader.Count("class count");
  if (!num_classes.ok()) return num_classes.status();
  auto class_names = reader.Words(num_classes.value(), "class name");
  if (!class_names.ok()) return class_names.status();
  POPP_RETURN_IF_ERROR(
      ParseTransformOptions(reader, repro.c.transform_options));
  POPP_RETURN_IF_ERROR(ParseBuildOptions(reader, repro.c.build_options));
  POPP_RETURN_IF_ERROR(reader.Expect("message"));
  repro.message = reader.RestOfLine();

  auto loaded = ReadCsv(DirName(recipe_path) + "/" + csv_name.value());
  if (!loaded.ok()) return loaded.status();
  const Dataset& raw = loaded.value();
  if (raw.NumAttributes() != attr_names.value().size()) {
    return Status::InvalidArgument("recipe: CSV attribute count mismatch");
  }
  // Rebuild the dataset under the recorded schema: CSV loading assigns
  // class ids by first appearance, which need not match the original ids
  // (and ids participate in tie-breaking).
  Schema schema(std::move(attr_names).value(),
                std::move(class_names).value());
  Dataset data(schema);
  data.Reserve(raw.NumRows());
  for (size_t r = 0; r < raw.NumRows(); ++r) {
    const auto id =
        schema.ClassIdOf(raw.schema().ClassName(raw.Label(r)));
    if (!id.ok()) {
      return Status::InvalidArgument(
          "recipe: CSV class label not in recorded class list");
    }
    data.AddRow(raw.Row(r), id.value());
  }
  repro.c.data = std::move(data);
  return repro;
}

}  // namespace popp::check

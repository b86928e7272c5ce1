#include "model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

namespace perfbench {

using heaven::CellType;
using heaven::MddArray;
using heaven::MdInterval;
using heaven::MdPoint;

namespace {

/// Calls fn(array_cell_offset, region_cell_offset, run_cells) for every
/// innermost-dimension run of `region` inside an array over `outer`.
template <typename Fn>
void ForEachRun(const MdInterval& outer, const MdInterval& region, Fn fn) {
  const size_t n = region.dims();
  const uint64_t run = static_cast<uint64_t>(region.Extent(n - 1));
  std::vector<int64_t> p(n);
  for (size_t d = 0; d < n; ++d) p[d] = region.lo(d);
  uint64_t dst = 0;
  for (;;) {
    uint64_t off = 0;
    for (size_t d = 0; d < n; ++d) {
      off = off * static_cast<uint64_t>(outer.Extent(d)) +
            static_cast<uint64_t>(p[d] - outer.lo(d));
    }
    fn(off, dst, run);
    dst += run;
    int d = static_cast<int>(n) - 2;
    for (; d >= 0; --d) {
      if (++p[d] <= region.hi(d)) break;
      p[d] = region.lo(d);
    }
    if (d < 0) break;
  }
}

/// Hash of a cell coordinate to [0, 1).
double Hash01(uint64_t seed, uint64_t linear) {
  Rng rng(seed ^ (linear * 0x9e3779b97f4a7c15ULL));
  return rng.Unit();
}

/// Values on a 1/16 grid are exact in float.
float Quantize(double v) { return static_cast<float>(std::round(v * 16.0) / 16.0); }

/// Stores cell `offset` of a float array (memcpy: the buffer holds bytes).
void SetCell(MddArray* array, uint64_t offset, float v) {
  std::memcpy(array->mutable_tile().mutable_data().data() + offset * sizeof(float), &v,
              sizeof(float));
}

float CellAt(const MddArray& array, uint64_t offset) {
  float v;
  std::memcpy(&v, array.tile().data().data() + offset * sizeof(float), sizeof(float));
  return v;
}

bool EvalPredicate(const heaven::CellPredicate& pred, double v) {
  switch (pred.cmp) {
    case heaven::CompareOp::kLt: return v < pred.value;
    case heaven::CompareOp::kLe: return v <= pred.value;
    case heaven::CompareOp::kGt: return v > pred.value;
    case heaven::CompareOp::kGe: return v >= pred.value;
    case heaven::CompareOp::kEq: return v == pred.value;
    case heaven::CompareOp::kNe: return v != pred.value;
  }
  return false;
}

/// Row-major bytes of `region` cut out of `array`.
std::string ExtractBytes(const MddArray& array, const MdInterval& region) {
  std::string out(region.CellCount() * sizeof(float), '\0');
  const char* src = array.tile().data().data();
  ForEachRun(array.domain(), region, [&](uint64_t off, uint64_t dst, uint64_t run) {
    std::memcpy(out.data() + dst * sizeof(float), src + off * sizeof(float),
                run * sizeof(float));
  });
  return out;
}

}  // namespace

MddArray GenerateField(const ObjectSpec& spec) {
  MddArray array(spec.domain, CellType::kFloat);
  const MdInterval& dom = spec.domain;
  const size_t n = dom.dims();
  Rng layout(spec.layout);
  Rng values(spec.seed);
  if (spec.kind == FieldKind::kDense) {
    const double phase = layout.Unit() * 6.28;
    const uint64_t noise_seed = values.Next();
    std::vector<double> first(static_cast<size_t>(dom.Extent(0)));
    for (size_t x = 0; x < first.size(); ++x) {
      first[x] = 15.0 + 5.0 * std::sin(phase + 0.05 * static_cast<double>(x));
    }
    std::vector<int64_t> p(n, 0);
    const uint64_t total = dom.CellCount();
    for (uint64_t i = 0; i < total; ++i) {
      double v = first[static_cast<size_t>(p[0])];
      for (size_t d = 1; d < n; ++d) {
        v -= 0.02 * static_cast<double>(d) * static_cast<double>(p[d]);
      }
      v += 0.5 * Hash01(noise_seed, i) - 0.25;
      SetCell(&array, i, Quantize(v));
      for (int d = static_cast<int>(n) - 1; d >= 0; --d) {
        if (++p[d] < dom.Extent(d)) break;
        p[d] = 0;
      }
    }
    return array;
  }
  // Sparse: four blobs of ~0.5 % of the cells each, the rest zero.
  for (int blob = 0; blob < 4; ++blob) {
    const MdInterval box = RandomBox(dom, 0.005, &layout);
    const uint64_t blob_seed = values.Next();
    ForEachRun(dom, box, [&](uint64_t off, uint64_t, uint64_t run) {
      for (uint64_t k = 0; k < run; ++k) {
        SetCell(&array, off + k, Quantize(1.0 + 99.0 * Hash01(blob_seed, off + k)));
      }
    });
  }
  return array;
}

MddArray GeneratePatch(const MdInterval& box, uint64_t seed) {
  MddArray patch(box, CellType::kFloat);
  const uint64_t total = box.CellCount();
  for (uint64_t i = 0; i < total; ++i) {
    SetCell(&patch, i, Quantize(-10.0 + 20.0 * Hash01(seed, i)));
  }
  return patch;
}

MdInterval RandomBox(const MdInterval& domain, double fraction, Rng* rng) {
  const size_t n = domain.dims();
  const double edge = std::pow(fraction, 1.0 / static_cast<double>(n));
  std::vector<int64_t> lo(n);
  std::vector<int64_t> hi(n);
  for (size_t d = 0; d < n; ++d) {
    const double jitter = 0.8 + 0.45 * rng->Unit();
    const int64_t extent = std::clamp<int64_t>(
        static_cast<int64_t>(std::llround(edge * jitter *
                                          static_cast<double>(domain.Extent(d)))),
        1, domain.Extent(d));
    lo[d] = rng->Range(domain.lo(d), domain.hi(d) - extent + 1);
    hi[d] = lo[d] + extent - 1;
  }
  return MdInterval(MdPoint(std::move(lo)), MdPoint(std::move(hi)));
}

void ApplyPatch(MddArray* array, const MddArray& patch) {
  char* dst = array->mutable_tile().mutable_data().data();
  const char* src = patch.tile().data().data();
  ForEachRun(array->domain(), patch.domain(),
             [&](uint64_t off, uint64_t from, uint64_t run) {
               std::memcpy(dst + off * sizeof(float), src + from * sizeof(float),
                           run * sizeof(float));
             });
}

double ExpectedCondense(const MddArray& array, heaven::Condenser condenser,
                        const MdInterval& region) {
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  uint64_t count = 0;
  ForEachRun(array.domain(), region, [&](uint64_t off, uint64_t, uint64_t run) {
    for (uint64_t k = 0; k < run; ++k) {
      const double v = CellAt(array, off + k);
      sum += v;
      min = count == 0 ? v : std::min(min, v);
      max = count == 0 ? v : std::max(max, v);
      ++count;
    }
  });
  switch (condenser) {
    case heaven::Condenser::kSum: return sum;
    case heaven::Condenser::kAvg: return sum / static_cast<double>(count);
    case heaven::Condenser::kMin: return min;
    case heaven::Condenser::kMax: return max;
    case heaven::Condenser::kCount: return static_cast<double>(count);
  }
  return 0.0;
}

bool ExpectedQuantifier(const MddArray& array, const MdInterval& region,
                        const heaven::CellPredicate& pred, bool universal) {
  bool any = false;
  bool all = true;
  ForEachRun(array.domain(), region, [&](uint64_t off, uint64_t, uint64_t run) {
    for (uint64_t k = 0; k < run; ++k) {
      const bool hit = EvalPredicate(pred, CellAt(array, off + k));
      any = any || hit;
      all = all && hit;
    }
  });
  return universal ? all : any;
}

bool Oracle::Record(bool ok) {
  checks_.fetch_add(1);
  if (!ok) mismatches_.fetch_add(1);
  return ok;
}

bool Oracle::CheckArray(const MddArray& model, const MdInterval& region,
                        const MddArray& got) {
  std::string expected = ExtractBytes(model, region);
  if (TakeCorruption()) expected[0] ^= 0x5a;
  return Record(got.domain() == region && got.cell_type() == CellType::kFloat &&
                got.tile().data() == expected);
}

bool Oracle::CheckScalar(double expected, double got) {
  if (TakeCorruption()) expected += 1.0;
  return Record(std::fabs(expected - got) <= 1e-9 * std::max(1.0, std::fabs(expected)));
}

bool Oracle::CheckBool(bool expected, bool got) {
  if (TakeCorruption()) expected = !expected;
  return Record(expected == got);
}

}  // namespace perfbench

// The benchmark-side model of the archive: seeded generators for the
// objects, boxes and update patches, and the oracle that checks every
// result the library returns against the model. The expected values are
// computed here, from the model's own cell buffers, without calling the
// library's array operations.
#ifndef PERFBENCH_MODEL_H_
#define PERFBENCH_MODEL_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "array/mdd.h"
#include "array/ops.h"
#include "heaven/bitmap_index.h"
#include "util.h"

namespace perfbench {

enum class FieldKind {
  kDense,   // smooth climate-like float field
  kSparse,  // ~98 % zeros, the rest in a few clustered blobs
};

struct ObjectSpec {
  std::string name;
  heaven::MdInterval domain;
  FieldKind kind = FieldKind::kDense;
  /// Draws the cell values.
  uint64_t seed = 0;
  /// Places the field's structure (the dense field's phase, the sparse
  /// blobs) and the object's box pool.
  uint64_t layout = 0;
};

/// The object's cells (float), reproducible from spec.seed and spec.layout.
heaven::MddArray GenerateField(const ObjectSpec& spec);

/// Seeded values for an UpdateRegion patch over `box`.
heaven::MddArray GeneratePatch(const heaven::MdInterval& box, uint64_t seed);

/// A box inside `domain` holding about `fraction` of its cells, at a
/// seeded position.
heaven::MdInterval RandomBox(const heaven::MdInterval& domain, double fraction,
                             Rng* rng);

/// Copies `patch` into `array` (the model side of UpdateRegion).
void ApplyPatch(heaven::MddArray* array, const heaven::MddArray& patch);

/// Condenser over `region` of a float array, in row-major order.
double ExpectedCondense(const heaven::MddArray& array, heaven::Condenser condenser,
                        const heaven::MdInterval& region);

/// Whether some (universal = false) or every cell of `region` satisfies
/// `pred`.
bool ExpectedQuantifier(const heaven::MddArray& array,
                        const heaven::MdInterval& region,
                        const heaven::CellPredicate& pred, bool universal);

/// Counts checks and mismatches; shared by all client threads.
class Oracle {
 public:
  /// Perturbs the expected value of the next check: the negative case of
  /// the smoke test, which must make the run fail.
  void CorruptNextCheck() { corrupt_.store(true); }

  /// `got` must cover exactly `region` with the model's cells.
  bool CheckArray(const heaven::MddArray& model, const heaven::MdInterval& region,
                  const heaven::MddArray& got);
  bool CheckScalar(double expected, double got);
  bool CheckBool(bool expected, bool got);

  uint64_t checks() const { return checks_.load(); }
  uint64_t mismatches() const { return mismatches_.load(); }

 private:
  bool Record(bool ok);
  bool TakeCorruption() { return corrupt_.exchange(false); }

  std::atomic<bool> corrupt_{false};
  std::atomic<uint64_t> checks_{0};
  std::atomic<uint64_t> mismatches_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_MODEL_H_

// libFuzzer harness for the disk store open path: PagedFile header
// validation, the VectorSetStore store-header check and id-directory
// rebuild scan (page/record headers, each object id exactly once) and
// vector-set record deserialization
// (src/vsim/storage/vector_set_store.cc).
//
// The contract under attack mirrors the VSNP codec harness
// (tools/fuzz_vsnp.cc): an arbitrary .vspg byte string must produce a
// clean Status error or a well-formed store -- never a crash, hang,
// out-of-bounds page read or runaway allocation. This is the surface a
// hostile or corrupted store file hits in VectorSetStore::Open. (`vsim
// serve --store` does not open an existing store: it writes a fresh one
// through DbSnapshot::CreateDiskBacked.) The deterministic corrupt-file
// cases for the same parser live in tests/corrupt_file_test.cc.
//
// The harness materializes the input as a store file (the storage
// stack's parsers read through PagedFile, which wants a real fd),
// opens it, and exercises every record the directory scan accepted.
//
// Build (Clang only):
//   cmake -B build-fuzz -S . -DCMAKE_CXX_COMPILER=clang++ \
//         -DVSIM_FUZZER=ON -DVSIM_SANITIZE=address
//   cmake --build build-fuzz --target fuzz_store
// Run (time-boxed smoke, seeded from the checked-in corpus):
//   tools/check_static.sh --fuzz-smoke
// or directly:
//   build-fuzz/tools/fuzz_store -max_total_time=60 tests/fuzz_corpus/store
#include <stdio.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "vsim/common/status.h"
#include "vsim/index/io_stats.h"
#include "vsim/storage/vector_set_store.h"

namespace {

// One scratch path per process: libFuzzer drives a single-threaded
// loop, and -jobs=N forks separate processes.
const std::string& ScratchPath() {
  static const std::string* path = new std::string(
      "/tmp/vsim_fuzz_store_" + std::to_string(getpid()) + ".vspg");
  return *path;
}

bool WriteInput(const uint8_t* data, size_t size) {
  FILE* f = fopen(ScratchPath().c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = size == 0 || fwrite(data, 1, size, f) == size;
  fclose(f);
  return ok;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  // Anything past a few pages only slows the loop down without adding
  // grammar coverage: the interesting structure is in the header page
  // and the first data pages.
  if (size > 64 * 1024) return 0;
  if (!WriteInput(data, size)) return 0;

  vsim::StatusOr<vsim::VectorSetStore> store =
      vsim::VectorSetStore::Open(ScratchPath(), /*pool_pages=*/4);
  if (!store.ok()) return 0;  // clean rejection is the expected outcome

  // The scan accepted the directory: every record it admitted must now
  // deserialize or fail cleanly, through the buffer pool (bounded Get
  // sweep; a hostile record count must not turn into a slow iteration).
  vsim::IoStats stats;
  size_t n = store->size();
  if (n > 128) n = 128;
  for (size_t id = 0; id < n; ++id) {
    (void)store->Get(static_cast<int>(id), &stats);
  }
  return 0;
}

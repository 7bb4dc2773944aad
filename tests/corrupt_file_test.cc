// Corrupt- and truncated-file corpus for the persisted-format loaders:
// take *valid* VectorSetStore / PagedFile / CadDatabase files, then
// truncate them at every interesting length and flip bytes throughout,
// asserting the loaders return clean Status errors -- never crashes,
// hangs, runaway allocations or out-of-bounds reads. Complements
// parser_robustness_test.cc (random garbage): mutations of valid files
// exercise the deep, past-the-magic parsing paths that garbage rarely
// reaches. Hand-built store files each break exactly one rule of the
// store format (a duplicate, missing or out-of-range object id; the
// layout written before records carried their ids) and must fail Open.
// The whole file doubles as a regression corpus for the UBSan/ASan
// stages of tools/check_static.sh.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "vsim/common/rng.h"
#include "vsim/core/similarity.h"
#include "vsim/data/dataset.h"
#include "vsim/index/disk_xtree.h"
#include "vsim/index/xtree.h"
#include "vsim/storage/paged_file.h"
#include "vsim/storage/vector_set_store.h"

namespace vsim {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<char> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Builds a small but multi-page store file and returns its bytes.
std::vector<char> MakeValidStoreFile(const std::string& path) {
  Rng rng(31);
  StatusOr<VectorSetStore> store = VectorSetStore::Create(path, 512, 4);
  EXPECT_TRUE(store.ok());
  for (int i = 0; i < 30; ++i) {
    VectorSet set;
    const int n = 1 + static_cast<int>(rng.NextBounded(4));
    for (int v = 0; v < n; ++v) {
      FeatureVector vec(6);
      for (double& d : vec) d = rng.NextDouble();
      set.vectors.push_back(std::move(vec));
    }
    EXPECT_TRUE(store->Append(i, set).ok());
  }
  EXPECT_TRUE(store->Flush().ok());
  return ReadFile(path);
}

// Opens a (possibly corrupt) store and drags every reachable record
// through Get(); all failures must be Status errors.
void ExerciseStore(const std::string& path) {
  StatusOr<VectorSetStore> store = VectorSetStore::Open(path, 4);
  if (!store.ok()) return;  // clean rejection is fine
  for (int id = 0; id < static_cast<int>(store->size()); ++id) {
    (void)store->Get(id);  // any status; must not crash
  }
}

void PutLE(std::vector<char>* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>(v >> (8 * i)));
  }
}

// One vector-set payload: [u16 n = 1][u16 dim = 6][6 doubles].
std::vector<char> OneVectorPayload(double value) {
  std::vector<char> payload;
  PutLE(&payload, 1, 2);
  PutLE(&payload, 6, 2);
  for (int i = 0; i < 6; ++i) {
    const char* bytes = reinterpret_cast<const char*>(&value);
    payload.insert(payload.end(), bytes, bytes + sizeof(double));
  }
  return payload;
}

// Hand-builds a PagedFile whose data pages are `pages` (each padded to
// the page size), bypassing VectorSetStore's writer and its checks.
void WriteRawPages(const std::string& path,
                   const std::vector<std::vector<char>>& pages) {
  StatusOr<PagedFile> file = PagedFile::Create(path, 512);
  ASSERT_TRUE(file.ok());
  for (std::vector<char> page : pages) {
    StatusOr<PageId> id = file->Allocate();
    ASSERT_TRUE(id.ok());
    page.resize(512, 0);
    ASSERT_TRUE(file->Write(*id, page.data()).ok());
  }
  ASSERT_TRUE(file->Sync().ok());
}

// A store in the current layout: a header page ("VSSTOR01", u32 object
// count) and one data page holding a record per entry of `ids`
// ([u32 id][u16 payload bytes][payload]).
void WriteRawStore(const std::string& path, uint32_t objects,
                   const std::vector<uint32_t>& ids) {
  std::vector<char> header = {'V', 'S', 'S', 'T', 'O', 'R', '0', '1'};
  PutLE(&header, objects, 4);
  std::vector<char> data;
  PutLE(&data, ids.size(), 2);
  for (uint32_t id : ids) {
    const std::vector<char> payload = OneVectorPayload(id);
    PutLE(&data, id, 4);
    PutLE(&data, payload.size(), 2);
    data.insert(data.end(), payload.begin(), payload.end());
  }
  WriteRawPages(path, {header, data});
}

TEST(CorruptFileTest, HandBuiltStoreOpensInItsRecordOrder) {
  // The hand-built layout is the real one: the failure cases below
  // differ from this file only in the field they name.
  const std::string path = TempPath("raw_ok.vspg");
  WriteRawStore(path, 3, {2, 0, 1});
  StatusOr<VectorSetStore> store = VectorSetStore::Open(path, 4);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store->page_order(), (std::vector<int>{2, 0, 1}));
  for (int id = 0; id < 3; ++id) {
    StatusOr<VectorSet> set = store->Get(id);
    ASSERT_TRUE(set.ok());
    EXPECT_EQ(set->vectors[0][0], static_cast<double>(id));
  }
  std::remove(path.c_str());
}

TEST(CorruptFileTest, StoreWithDuplicateIdFailsToOpen) {
  const std::string path = TempPath("raw_dup.vspg");
  WriteRawStore(path, 3, {2, 0, 2});
  EXPECT_FALSE(VectorSetStore::Open(path, 4).ok());
  std::remove(path.c_str());
}

TEST(CorruptFileTest, StoreWithMissingIdFailsToOpen) {
  const std::string path = TempPath("raw_missing.vspg");
  WriteRawStore(path, 3, {2, 0});
  EXPECT_FALSE(VectorSetStore::Open(path, 4).ok());
  std::remove(path.c_str());
}

TEST(CorruptFileTest, StoreWithOutOfRangeIdFailsToOpen) {
  const std::string path = TempPath("raw_range.vspg");
  WriteRawStore(path, 3, {2, 0, 3});
  EXPECT_FALSE(VectorSetStore::Open(path, 4).ok());
  WriteRawStore(path, 3, {2, 0, 0xffffffffu});
  EXPECT_FALSE(VectorSetStore::Open(path, 4).ok());
  std::remove(path.c_str());
}

TEST(CorruptFileTest, StoreWrittenBeforeRecordsCarriedIdsFailsToOpen) {
  // The earlier layout: no store header page, data from page 1 on, each
  // record [u16 payload bytes][payload] with the id implied by position.
  const std::string path = TempPath("raw_old.vspg");
  std::vector<char> data;
  PutLE(&data, 3, 2);
  for (int id = 0; id < 3; ++id) {
    const std::vector<char> payload = OneVectorPayload(id);
    PutLE(&data, payload.size(), 2);
    data.insert(data.end(), payload.begin(), payload.end());
  }
  WriteRawPages(path, {data});
  EXPECT_FALSE(VectorSetStore::Open(path, 4).ok());
  std::remove(path.c_str());
}

TEST(CorruptFileTest, TruncatedStoreFilesFailCleanly) {
  const std::string path = TempPath("trunc.vspg");
  const std::vector<char> valid = MakeValidStoreFile(path);
  ASSERT_GT(valid.size(), 1024u);
  // Every truncation point in the header page, then page-granular and
  // odd offsets through the rest.
  for (size_t len = 0; len < valid.size();
       len += (len < 600 ? 7 : 211)) {
    WriteFile(path, std::vector<char>(valid.begin(), valid.begin() + len));
    ExerciseStore(path);
  }
  std::remove(path.c_str());
}

TEST(CorruptFileTest, BitFlippedStoreFilesFailCleanly) {
  const std::string path = TempPath("flip.vspg");
  const std::vector<char> valid = MakeValidStoreFile(path);
  Rng rng(37);
  // Single-byte corruptions sweeping the whole file (headers, record
  // counts, record length fields, payloads).
  for (size_t pos = 0; pos < valid.size(); pos += 13) {
    std::vector<char> mutated = valid;
    mutated[pos] = static_cast<char>(mutated[pos] ^
                                     (1 + rng.NextBounded(255)));
    WriteFile(path, mutated);
    ExerciseStore(path);
  }
  // Targeted: maximal record counts / record sizes in every data page
  // (the fields the directory scan trusts most).
  for (size_t page_start = 512; page_start + 4 <= valid.size();
       page_start += 512) {
    std::vector<char> mutated = valid;
    mutated[page_start] = static_cast<char>(0xff);
    mutated[page_start + 1] = static_cast<char>(0xff);
    mutated[page_start + 2] = static_cast<char>(0xff);
    mutated[page_start + 3] = static_cast<char>(0xff);
    WriteFile(path, mutated);
    ExerciseStore(path);
  }
  // Targeted: every byte of every record's object id (data pages from
  // page 2; records [u32 id][u16 payload bytes][payload]). A flipped id
  // lands out of range or on another record's id.
  size_t id_fields = 0;
  for (size_t page_start = 2 * 512; page_start + 512 <= valid.size();
       page_start += 512) {
    const auto byte = [&](size_t at) {
      return static_cast<size_t>(static_cast<unsigned char>(valid[at]));
    };
    const size_t records = byte(page_start) | byte(page_start + 1) << 8;
    size_t offset = page_start + 2;
    for (size_t r = 0; r < records; ++r, ++id_fields) {
      for (size_t b = 0; b < 4; ++b) {
        std::vector<char> mutated = valid;
        mutated[offset + b] = static_cast<char>(mutated[offset + b] ^
                                                (1 + rng.NextBounded(255)));
        WriteFile(path, mutated);
        EXPECT_FALSE(VectorSetStore::Open(path, 4).ok())
            << "id byte " << b << " of the record at " << offset;
      }
      offset += 6 + (byte(offset + 4) | byte(offset + 5) << 8);
    }
  }
  EXPECT_EQ(id_fields, 30u);
  std::remove(path.c_str());
}

TEST(CorruptFileTest, StoreHeaderPageCountLiesFailCleanly) {
  const std::string path = TempPath("count.vspg");
  std::vector<char> valid = MakeValidStoreFile(path);
  // Inflate the header's page count far past the real file size: reads
  // of the phantom pages must fail with short-read Status errors.
  for (int i = 0; i < 8; ++i) valid[16 + i] = static_cast<char>(0x7f);
  WriteFile(path, valid);
  ExerciseStore(path);
  std::remove(path.c_str());
}

// Regression for a real incident: a corrupt node count sent
// DiskXTree::Open into a ~60 GB directory resize, and cyclic child
// pointers made queries traverse forever. Queries on a mutated tree
// must terminate and never index outside the directory.
TEST(CorruptFileTest, MutatedDiskTreeFilesFailCleanly) {
  Rng rng(43);
  XTree tree(4);
  for (int i = 0; i < 200; ++i) {
    FeatureVector p(4);
    for (double& v : p) v = rng.Uniform(-2, 2);
    ASSERT_TRUE(tree.Insert(p, i).ok());
  }
  const std::string path = TempPath("mutated.vsdx");
  ASSERT_TRUE(DiskXTree::Write(tree, path, 512).ok());
  const std::vector<char> valid = ReadFile(path);
  ASSERT_GT(valid.size(), 1024u);

  FeatureVector query(4, 0.3);
  auto exercise = [&] {
    StatusOr<DiskXTree> disk = DiskXTree::Open(path, 8);
    if (!disk.ok()) return;  // clean rejection is fine
    (void)disk->RangeQuery(query, 1.0);
    (void)disk->KnnQuery(query, 5);
  };
  // Truncations.
  for (size_t len = 0; len < valid.size();
       len += (len < 600 ? 7 : 173)) {
    WriteFile(path, std::vector<char>(valid.begin(), valid.begin() + len));
    exercise();
  }
  // Byte flips everywhere (header, directory, node blobs) plus
  // all-ones stomps of the count/pointer-heavy directory region.
  for (size_t pos = 0; pos < valid.size(); pos += 11) {
    std::vector<char> mutated = valid;
    mutated[pos] = static_cast<char>(mutated[pos] ^
                                     (1 + rng.NextBounded(255)));
    WriteFile(path, mutated);
    exercise();
  }
  for (size_t pos = 512; pos + 4 <= valid.size() && pos < 2048; pos += 16) {
    std::vector<char> mutated = valid;
    for (size_t i = 0; i < 4; ++i) mutated[pos + i] = static_cast<char>(0xff);
    WriteFile(path, mutated);
    exercise();
  }
  std::remove(path.c_str());
}

TEST(CorruptFileTest, MutatedDatabaseFilesFailCleanly) {
  ExtractionOptions opt;
  opt.histogram_resolution = 12;
  opt.cover_resolution = 12;
  opt.num_covers = 5;
  const Dataset ds = MakeCarDataset(6, 3);
  StatusOr<CadDatabase> built = CadDatabase::FromDataset(ds, opt);
  ASSERT_TRUE(built.ok());

  const std::string path = TempPath("mutated.vsimdb");
  ASSERT_TRUE(built->Save(path).ok());
  const std::vector<char> valid = ReadFile(path);
  ASSERT_GT(valid.size(), 64u);

  Rng rng(41);
  // Truncations: dense near the front (magic, options, counts), then
  // sparse through the payload.
  for (size_t len = 0; len < valid.size();
       len += (len < 256 ? 5 : valid.size() / 97 + 1)) {
    WriteFile(path, std::vector<char>(valid.begin(), valid.begin() + len));
    StatusOr<CadDatabase> loaded = CadDatabase::Load(path);
    EXPECT_FALSE(loaded.ok()) << "truncation at " << len << " loaded";
  }
  // Byte flips: loaders may accept payload-only flips (doubles have no
  // checksum), but must never crash; flips in length/count fields must
  // be rejected or parsed to a consistent database.
  for (size_t pos = 0; pos < valid.size();
       pos += valid.size() / 211 + 1) {
    std::vector<char> mutated = valid;
    mutated[pos] = static_cast<char>(mutated[pos] ^
                                     (1 + rng.NextBounded(255)));
    WriteFile(path, mutated);
    (void)CadDatabase::Load(path);  // any status; must not crash
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vsim

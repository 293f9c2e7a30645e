// Writes the seed corpora for the four fuzz targets. Run from the repo
// root (or pass the corpus root as argv[1]):
//
//   fuzz_gen_seeds fuzz/corpus
//
// Seeds are real encoder output wrapped in each target's input framing, so
// the mutation engines start from deep inside the accept-path instead of
// spending their budget rediscovering magic numbers. The generated files
// are committed; regenerate only when the wire or page formats change.

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "buffer/resource_manager.h"
#include "common/random.h"
#include "encoding/codec.h"
#include "paged/paged_numeric_dictionary.h"
#include "server/wire.h"
#include "storage/storage_manager.h"

namespace fs = std::filesystem;
namespace wire = payg::server::wire;

namespace {

void WriteSeed(const fs::path& dir, const std::string& name,
               const std::string& bytes) {
  std::ofstream f(dir / name, std::ios::binary);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string RequestSeed(const wire::Request& req) {
  return std::string(1, '\x00') + wire::EncodeRequest(req);
}

std::string ResponseSeed(wire::Op op, const wire::Response& resp) {
  std::string out(1, '\x01');
  out.push_back(static_cast<char>(op));
  return out + wire::EncodeResponse(op, resp);
}

void GenWireSeeds(const fs::path& dir) {
  wire::Request req;
  req.op = wire::Op::kPing;
  req.table = "t";
  WriteSeed(dir, "req_ping", RequestSeed(req));

  req = {};
  req.op = wire::Op::kSelectByValue;
  req.deadline_us = 500000;
  req.table = "orders";
  req.column = "status";
  req.value = payg::Value(std::string("open"));
  req.select_columns = {"id", "amount"};
  WriteSeed(dir, "req_select_by_value", RequestSeed(req));

  req = {};
  req.op = wire::Op::kSelectRange;
  req.table = "orders";
  req.column = "amount";
  req.lo = payg::Value(int64_t{10});
  req.hi = payg::Value(int64_t{99});
  WriteSeed(dir, "req_select_range", RequestSeed(req));

  req = {};
  req.op = wire::Op::kSumRange;
  req.table = "orders";
  req.column = "amount";
  req.lo = payg::Value(1.5);
  req.hi = payg::Value(99.5);
  req.sum_column = "amount";
  WriteSeed(dir, "req_sum_range", RequestSeed(req));

  req = {};
  req.op = wire::Op::kSelectIn;
  req.table = "orders";
  req.column = "id";
  req.values = {payg::Value(int64_t{1}), payg::Value(int64_t{7}),
                payg::Value(std::string("x"))};
  WriteSeed(dir, "req_select_in", RequestSeed(req));

  req = {};
  req.op = wire::Op::kCountPrefix;
  req.table = "orders";
  req.column = "name";
  req.prefix = "ab";
  WriteSeed(dir, "req_count_prefix", RequestSeed(req));

  req = {};
  req.op = wire::Op::kSelectWhere;
  req.table = "orders";
  payg::Predicate eq;
  eq.op = payg::Predicate::Op::kEq;
  eq.column = "status";
  eq.value = payg::Value(std::string("open"));
  payg::Predicate between;
  between.op = payg::Predicate::Op::kBetween;
  between.column = "amount";
  between.lo = payg::Value(int64_t{5});
  between.hi = payg::Value(int64_t{50});
  payg::Predicate in;
  in.op = payg::Predicate::Op::kIn;
  in.column = "id";
  in.values = {payg::Value(int64_t{3})};
  payg::Predicate prefix;
  prefix.op = payg::Predicate::Op::kPrefix;
  prefix.column = "name";
  prefix.prefix = "a";
  req.predicates = {eq, between, in, prefix};
  req.select_columns = {"id"};
  WriteSeed(dir, "req_select_where", RequestSeed(req));

  wire::Response resp;
  resp.code = wire::Code::kOk;
  resp.query_id = 42;
  resp.result.rows = {{payg::Value(int64_t{1}), payg::Value(std::string("a"))},
                      {payg::Value(int64_t{2}), payg::Value(2.5)}};
  WriteSeed(dir, "resp_select",
            ResponseSeed(wire::Op::kSelectByValue, resp));

  resp = {};
  resp.code = wire::Code::kOk;
  resp.query_id = 7;
  resp.count = 1234;
  WriteSeed(dir, "resp_count", ResponseSeed(wire::Op::kCountWhere, resp));

  resp = {};
  resp.code = wire::Code::kOk;
  resp.row_ids = {{0, 5}, {1, 9}};
  WriteSeed(dir, "resp_row_ids",
            ResponseSeed(wire::Op::kRowIdsByValue, resp));

  resp = {};
  resp.code = wire::Code::kOverloaded;
  resp.message = "admission queue full";
  WriteSeed(dir, "resp_error", ResponseSeed(wire::Op::kPing, resp));
}

void PutBytes(std::string* out, const void* p, size_t n) {
  out->append(reinterpret_cast<const char*>(p), n);
}

std::string MetaV1(uint32_t bits, uint64_t row_count, uint64_t vpp,
                   uint8_t codec_id, uint32_t for_base) {
  std::string out;
  const uint32_t version = 1;
  PutBytes(&out, &version, 4);
  PutBytes(&out, &bits, 4);
  PutBytes(&out, &row_count, 8);
  PutBytes(&out, &vpp, 8);
  out.push_back(static_cast<char>(codec_id));
  out.append(3, '\0');
  PutBytes(&out, &for_base, 4);
  out.append(4, '\0');  // reserved
  return out;
}

void GenMetaSeeds(const fs::path& dir) {
  // Version 0: bits u32 @0, row_count u64 @8, values_per_page u64 @16.
  std::string v0;
  const uint32_t bits = 12;
  const uint64_t rows = 100000, vpp = 2048, pad = 0;
  PutBytes(&v0, &bits, 4);
  PutBytes(&v0, &pad, 4);
  PutBytes(&v0, &rows, 8);
  PutBytes(&v0, &vpp, 8);
  WriteSeed(dir, "v0_plain", v0);

  WriteSeed(dir, "v1_plain", MetaV1(12, 100000, 2048, 0, 0));
  WriteSeed(dir, "v1_for", MetaV1(8, 50000, 4096, 1, 1000));
  WriteSeed(dir, "v1_rle", MetaV1(16, 500000, 1024, 2, 0));
  // Rejected shapes, so mutation starts on both sides of every check.
  WriteSeed(dir, "v1_bad_codec", MetaV1(12, 10, 64, 9, 0));
  WriteSeed(dir, "v1_bad_bits", MetaV1(40, 10, 64, 0, 0));
  WriteSeed(dir, "short", std::string(7, '\x01'));
}

std::string CodecSeed(payg::CodecId id, const std::vector<payg::ValueId>& vids) {
  const payg::CodecChoice choice = payg::MakeCodecChoice(id, vids);
  // A small page: capacity chosen so the sample fills a few chunks.
  std::vector<uint8_t> payload(4096, 0);
  uint32_t aux2 = 0;
  const uint32_t psize = payg::CodecEncodePage(
      choice, vids.data(), vids.size(), payload.data(),
      static_cast<uint32_t>(payload.size()), &aux2);

  std::string out;
  out.push_back(static_cast<char>(choice.id));
  out.push_back(static_cast<char>(choice.params.bits));
  out.append(2, '\0');
  const uint32_t n = static_cast<uint32_t>(vids.size());
  PutBytes(&out, &n, 4);
  PutBytes(&out, &aux2, 4);
  PutBytes(&out, &choice.params.for_base, 4);
  out.append(reinterpret_cast<const char*>(payload.data()), psize);
  return out;
}

void GenCodecSeeds(const fs::path& dir) {
  std::vector<payg::ValueId> ramp;
  for (uint32_t i = 0; i < 256; ++i) ramp.push_back(i * 3 + 1);
  WriteSeed(dir, "plain_ramp", CodecSeed(payg::CodecId::kPlain, ramp));

  std::vector<payg::ValueId> clustered;
  for (uint32_t i = 0; i < 256; ++i) clustered.push_back(90000 + i % 40);
  WriteSeed(dir, "for_clustered", CodecSeed(payg::CodecId::kFor, clustered));

  std::vector<payg::ValueId> runs;
  for (uint32_t i = 0; i < 256; ++i) runs.push_back(i / 32);
  WriteSeed(dir, "rle_runs", CodecSeed(payg::CodecId::kRle, runs));

  std::vector<payg::ValueId> dense;
  for (uint32_t i = 0; i < 256; ++i) dense.push_back(i ^ (i << 3));
  // Every value distinct: the RLE encoder escapes to plain packing.
  WriteSeed(dir, "rle_escape", CodecSeed(payg::CodecId::kRle, dense));

  std::vector<payg::ValueId> one{7};
  WriteSeed(dir, "plain_single", CodecSeed(payg::CodecId::kPlain, one));
}

// One numeric dictionary page in fuzz_numdict_page's framing.
std::string NumDictSeed(uint32_t count, uint32_t width, uint64_t per_page,
                        const payg::NumericDictFence& fence, uint64_t probe,
                        const uint8_t* payload, uint32_t payload_size) {
  std::string out;
  PutBytes(&out, &count, 4);
  PutBytes(&out, &width, 4);
  PutBytes(&out, &per_page, 8);
  PutBytes(&out, &fence.base, 8);
  PutBytes(&out, &fence.stride, 8);
  PutBytes(&out, &probe, 8);
  out.append(reinterpret_cast<const char*>(payload), payload_size);
  return out;
}

template <typename T>
T CheckOk(payg::Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*r);
}

// Builds real paged numeric dictionaries in a scratch store and frames
// page 0 of each, plus three pages every parser check must reject.
void GenNumDictSeeds(const fs::path& dir) {
  const fs::path store = fs::temp_directory_path() /
                         ("payg_gen_seeds_" + std::to_string(::getpid()));
  payg::StorageOptions opts;
  opts.page_size = 4096;
  payg::ResourceManager rm;
  auto storage = CheckOk(payg::StorageManager::Open(store.string(), opts),
                         "open scratch store");
  std::string dense_seed;
  // `values` is a sorted std::vector<int64_t> or std::vector<double>.
  auto emit = [&](const std::string& name, const auto& values) {
    auto dict = CheckOk(payg::PagedNumericDictionary::Build(
                            storage.get(), &rm, payg::PoolId::kPagedPool,
                            name, values),
                        "build numeric dictionary");
    auto file = CheckOk(storage->OpenChain(name + ".ndict", dict->page_size()),
                        "open numeric dictionary chain");
    payg::Page page(dict->page_size());
    if (!file->ReadPage(0, &page).ok()) std::exit(1);
    std::string seed = NumDictSeed(
        page.header()->aux, page.header()->aux2, dict->values_per_page(),
        dict->fences()[0], payg::NumericKey(values[values.size() / 2]) + 1,
        page.payload(), page.payload_size());
    WriteSeed(dir, name, seed);
    return seed;
  };

  std::vector<int64_t> values;
  for (int64_t i = 0; i < 1000; ++i) values.push_back(3 * i - 1500);
  dense_seed = emit("dense_stride3", values);

  values.clear();
  for (int64_t i = 0; i < 10000; ++i) {
    if (i % 97 != 5) values.push_back(i);
  }
  emit("holes", values);

  values.clear();
  payg::Random rng(21);
  int64_t v = -1000000;
  for (int i = 0; i < 2000; ++i) {
    v += 1 + static_cast<int64_t>(rng.Uniform(1000));
    values.push_back(v);
  }
  emit("random_gaps", values);

  std::vector<double> doubles;
  for (int e = -300; e < 300; e += 2) {
    const double mantissa =
        1.0 + static_cast<double>(rng.Uniform(1 << 20)) / (1 << 20);
    doubles.push_back(std::ldexp(mantissa, e));
  }
  emit("raw_doubles", doubles);

  emit("single", std::vector<int64_t>{42});

  // Rejected shapes, so mutation starts on both sides of every check:
  // width 33, a count above the values per page, a short payload.
  std::string bad = dense_seed;
  const uint32_t width33 = 33;
  std::memcpy(bad.data() + 4, &width33, 4);
  WriteSeed(dir, "bad_width", bad);
  bad = dense_seed;
  uint64_t per_page = 0;
  std::memcpy(&per_page, bad.data() + 8, 8);
  const uint32_t over = static_cast<uint32_t>(per_page + 1);
  std::memcpy(bad.data(), &over, 4);
  WriteSeed(dir, "count_over_n", bad);
  WriteSeed(dir, "short_payload", dense_seed.substr(0, 40 + 64));

  storage.reset();
  fs::remove_all(store);
}

}  // namespace

int main(int argc, char** argv) {
  const fs::path root = argc > 1 ? argv[1] : "fuzz/corpus";
  for (const char* sub :
       {"wire_decode", "meta_page", "codec_page", "numdict_page"}) {
    fs::create_directories(root / sub);
  }
  GenWireSeeds(root / "wire_decode");
  GenMetaSeeds(root / "meta_page");
  GenCodecSeeds(root / "codec_page");
  GenNumDictSeeds(root / "numdict_page");
  return 0;
}

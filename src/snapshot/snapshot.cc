/**
 * @file
 * Snapshot frame encoding/decoding: little-endian primitives, section
 * framing, and open-time validation with offset-pinpointing errors.
 */

#include "snapshot/snapshot.hh"

#include <array>
#include <cassert>
#include <cstdio>
#include <cstring>

namespace cameo
{

namespace
{

/** Header: magic[8] + u32 version + u32 sectionCount. */
constexpr std::size_t kHeaderBytes = 16;

std::string
hex32(std::uint32_t v)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "%08x", v);
    return buf;
}

/** Copy @p n bytes to @p out; returns the byte after them. */
std::uint8_t *
putBytes(std::uint8_t *out, const void *data, std::size_t n)
{
    if (n != 0)
        std::memcpy(out, data, n);
    return out + n;
}

/** Little-endian @p v at @p out; returns the byte after it. */
std::uint8_t *
putU32(std::uint8_t *out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        *out++ = static_cast<std::uint8_t>(v >> (8 * i));
    return out;
}

std::uint8_t *
putU64(std::uint8_t *out, std::uint64_t v)
{
    out = putU32(out, static_cast<std::uint32_t>(v));
    return putU32(out, static_cast<std::uint32_t>(v >> 32));
}

} // namespace

std::uint32_t
snapshotCrc32(const void *data, std::size_t n)
{
    // Table generated on first use; reflected polynomial 0xEDB88320.
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i)
        crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

void
SnapshotWriter::beginSection(std::string_view name)
{
    assert(!inSection_ && !finished_ && !name.empty());
    inSection_ = true;
    sections_.push_back(
        {std::string(name), payload_.size(), payload_.size()});
}

void
SnapshotWriter::endSection()
{
    assert(inSection_);
    inSection_ = false;
    sections_.back().payloadEnd = payload_.size();
}

void
SnapshotWriter::u8(std::uint8_t v)
{
    assert(inSection_);
    payload_.push_back(v);
}

void
SnapshotWriter::u16(std::uint16_t v)
{
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
}

void
SnapshotWriter::u32(std::uint32_t v)
{
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
}

void
SnapshotWriter::u64(std::uint64_t v)
{
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
}

void
SnapshotWriter::f64(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
}

void
SnapshotWriter::str(std::string_view s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
}

void
SnapshotWriter::bytes(const void *data, std::size_t n)
{
    assert(inSection_);
    const auto *p = static_cast<const std::uint8_t *>(data);
    payload_.insert(payload_.end(), p, p + n);
}

void
SnapshotWriter::vecU8(const std::vector<std::uint8_t> &v)
{
    u64(v.size());
    bytes(v.data(), v.size());
}

void
SnapshotWriter::vecU32(const std::vector<std::uint32_t> &v)
{
    u64(v.size());
    for (std::uint32_t x : v)
        u32(x);
}

void
SnapshotWriter::vecU64(const std::vector<std::uint64_t> &v)
{
    u64(v.size());
    for (std::uint64_t x : v)
        u64(x);
}

std::vector<std::uint8_t>
SnapshotWriter::finish()
{
    assert(!inSection_ && !finished_);
    finished_ = true;
    // Size the frame once, then fill it front to back. Per section:
    // u32 name length, name, u64 payload length, u32 CRC, payload.
    std::size_t total = kHeaderBytes;
    for (const Section &s : sections_)
        total += 4 + s.name.size() + 8 + 4 + (s.payloadEnd - s.payloadBegin);
    std::vector<std::uint8_t> out(total);
    std::uint8_t *p = putBytes(out.data(), kSnapshotMagic, 8);
    p = putU32(p, kSnapshotVersion);
    p = putU32(p, static_cast<std::uint32_t>(sections_.size()));
    for (const Section &s : sections_) {
        p = putU32(p, static_cast<std::uint32_t>(s.name.size()));
        p = putBytes(p, s.name.data(), s.name.size());
        const std::size_t len = s.payloadEnd - s.payloadBegin;
        p = putU64(p, len);
        p = putU32(p, snapshotCrc32(payload_.data() + s.payloadBegin, len));
        p = putBytes(p, payload_.data() + s.payloadBegin, len);
    }
    assert(p == out.data() + out.size());
    return out;
}

bool
SnapshotWriter::writeFile(const std::string &path, std::string *error)
{
    const std::vector<std::uint8_t> data = finish();
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        if (error != nullptr)
            *error = "snapshot: cannot open '" + path + "' for writing";
        return false;
    }
    const std::size_t wrote =
        data.empty() ? 0 : std::fwrite(data.data(), 1, data.size(), f);
    const bool closed = std::fclose(f) == 0;
    if (wrote != data.size() || !closed) {
        if (error != nullptr)
            *error = "snapshot: short write to '" + path + "'";
        return false;
    }
    return true;
}

bool
SnapshotReader::open(std::vector<std::uint8_t> data)
{
    data_ = std::move(data);
    sections_.clear();
    nextSection_ = 0;
    error_.clear();
    // Bounds-checked scalar readers over the frame; any overrun is a
    // truncation defect reported at its byte offset.
    std::size_t at = 0;
    const auto need = [&](std::size_t n, const char *what) {
        if (data_.size() - at < n) {
            fail("snapshot: truncated " + std::string(what) +
                 " at offset " + std::to_string(at) + " (need " +
                 std::to_string(n) + " bytes, have " +
                 std::to_string(data_.size() - at) + ")");
            return false;
        }
        return true;
    };
    const auto getU32 = [&] {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data_[at + static_cast<
                     std::size_t>(i)]) << (8 * i);
        at += 4;
        return v;
    };
    if (!need(kHeaderBytes, "header"))
        return false;
    if (std::memcmp(data_.data(), kSnapshotMagic, 8) != 0) {
        fail("snapshot: bad magic at offset 0 (not a CAMEO snapshot)");
        return false;
    }
    at = 8;
    version_ = getU32();
    if (version_ != kSnapshotVersion) {
        fail("snapshot: format version " + std::to_string(version_) +
             " at offset 8; this build reads only version " +
             std::to_string(kSnapshotVersion));
        return false;
    }
    const std::uint32_t count = getU32();
    for (std::uint32_t i = 0; i < count; ++i) {
        if (!need(4, "section name length"))
            return false;
        const std::uint32_t nameLen = getU32();
        if (!need(nameLen, "section name"))
            return false;
        std::string name(reinterpret_cast<const char *>(data_.data()) +
                             at,
                         nameLen);
        at += nameLen;
        if (!need(12, "section length + CRC"))
            return false;
        const std::uint64_t lo = getU32();
        const std::uint64_t hi = getU32();
        const std::uint64_t len = lo | (hi << 32);
        const std::uint32_t storedCrc = getU32();
        if (!need(static_cast<std::size_t>(len), "section payload"))
            return false;
        const std::uint32_t crc =
            snapshotCrc32(data_.data() + at,
                          static_cast<std::size_t>(len));
        if (crc != storedCrc) {
            fail("snapshot: section '" + name +
                 "' payload CRC mismatch at offset " +
                 std::to_string(at) + " (stored " + hex32(storedCrc) +
                 ", computed " + hex32(crc) + ")");
            return false;
        }
        sections_.push_back({std::move(name), at, at + len});
        at += static_cast<std::size_t>(len);
    }
    if (at != data_.size()) {
        fail("snapshot: " + std::to_string(data_.size() - at) +
             " trailing bytes at offset " + std::to_string(at));
        return false;
    }
    return true;
}

bool
SnapshotReader::openFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        fail("snapshot: cannot open '" + path + "' for reading");
        return false;
    }
    std::vector<std::uint8_t> data;
    std::uint8_t buf[1 << 16];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
        data.insert(data.end(), buf, buf + got);
    const bool readError = std::ferror(f) != 0;
    std::fclose(f);
    if (readError) {
        fail("snapshot: read error on '" + path + "'");
        return false;
    }
    return open(std::move(data));
}

void
SnapshotReader::fail(const std::string &what)
{
    if (error_.empty())
        error_ = what;
}

bool
SnapshotReader::enterSection(std::string_view name)
{
    if (!ok())
        return false;
    assert(!inSection_);
    if (nextSection_ >= sections_.size()) {
        fail("snapshot: no section left to enter; expected '" +
             std::string(name) + "'");
        return false;
    }
    const Section &s = sections_[nextSection_];
    if (s.name != name) {
        fail("snapshot: section order mismatch at offset " +
             std::to_string(s.begin) + ": found '" + s.name +
             "', expected '" + std::string(name) + "'");
        return false;
    }
    ++nextSection_;
    inSection_ = true;
    cursor_ = static_cast<std::size_t>(s.begin);
    sectionEnd_ = s.end;
    currentName_ = s.name;
    return true;
}

bool
SnapshotReader::leaveSection()
{
    if (!ok())
        return false;
    assert(inSection_);
    inSection_ = false;
    if (cursor_ != sectionEnd_) {
        fail("snapshot: section '" + currentName_ + "' has " +
             std::to_string(sectionEnd_ - cursor_) +
             " unread bytes at offset " + std::to_string(cursor_));
        return false;
    }
    return true;
}

bool
SnapshotReader::overrun(std::size_t n)
{
    if (!ok())
        return true;
    if (!inSection_ || sectionEnd_ - cursor_ < n) {
        fail("snapshot: section '" + currentName_ +
             "' truncated at offset " + std::to_string(cursor_) +
             " (read of " + std::to_string(n) + " bytes past end)");
        return true;
    }
    return false;
}

std::uint8_t
SnapshotReader::u8()
{
    if (overrun(1))
        return 0;
    return data_[cursor_++];
}

std::uint16_t
SnapshotReader::u16()
{
    if (overrun(2))
        return 0;
    const std::uint16_t v = static_cast<std::uint16_t>(
        data_[cursor_] | (data_[cursor_ + 1] << 8));
    cursor_ += 2;
    return v;
}

std::uint32_t
SnapshotReader::u32()
{
    if (overrun(4))
        return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 data_[cursor_ + static_cast<std::size_t>(i)])
             << (8 * i);
    cursor_ += 4;
    return v;
}

std::uint64_t
SnapshotReader::u64()
{
    const std::uint64_t lo = u32();
    const std::uint64_t hi = u32();
    return lo | (hi << 32);
}

double
SnapshotReader::f64()
{
    const std::uint64_t bits = u64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

std::string
SnapshotReader::str()
{
    const std::uint32_t n = u32();
    if (overrun(n))
        return {};
    std::string s(reinterpret_cast<const char *>(data_.data()) + cursor_,
                  n);
    cursor_ += n;
    return s;
}

void
SnapshotReader::bytesInto(void *out, std::size_t n)
{
    if (overrun(n)) {
        std::memset(out, 0, n);
        return;
    }
    std::memcpy(out, data_.data() + cursor_, n);
    cursor_ += n;
}

void
SnapshotReader::vecU8(std::vector<std::uint8_t> &out)
{
    const std::uint64_t n = u64();
    if (overrun(static_cast<std::size_t>(n))) {
        out.clear();
        return;
    }
    out.resize(static_cast<std::size_t>(n));
    bytesInto(out.data(), out.size());
}

void
SnapshotReader::vecU32(std::vector<std::uint32_t> &out)
{
    const std::uint64_t n = u64();
    if (overrun(static_cast<std::size_t>(n) * 4)) {
        out.clear();
        return;
    }
    out.resize(static_cast<std::size_t>(n));
    for (std::uint32_t &x : out)
        x = u32();
}

void
SnapshotReader::vecU64(std::vector<std::uint64_t> &out)
{
    const std::uint64_t n = u64();
    if (overrun(static_cast<std::size_t>(n) * 8)) {
        out.clear();
        return;
    }
    out.resize(static_cast<std::size_t>(n));
    for (std::uint64_t &x : out)
        x = u64();
}

} // namespace cameo

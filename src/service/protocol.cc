#include "service/protocol.hh"

#include <cstring>

namespace quest::service {

const char *
msgTypeName(MsgType type)
{
    switch (type) {
      case MsgType::Submit:
        return "submit";
      case MsgType::SubmitReply:
        return "submit-reply";
      case MsgType::Status:
        return "status";
      case MsgType::StatusReply:
        return "status-reply";
      case MsgType::Result:
        return "result";
      case MsgType::ResultReply:
        return "result-reply";
      case MsgType::Cancel:
        return "cancel";
      case MsgType::CancelReply:
        return "cancel-reply";
      case MsgType::Stats:
        return "stats";
      case MsgType::StatsReply:
        return "stats-reply";
      case MsgType::Shutdown:
        return "shutdown";
      case MsgType::ShutdownReply:
        return "shutdown-reply";
      case MsgType::Error:
        return "error";
      case MsgType::Retry:
        return "retry";
    }
    return "unknown";
}

std::vector<uint8_t>
encodeFrame(MsgType type, const std::vector<uint8_t> &payload)
{
    ByteWriter w;
    w.bytes(kFrameMagic, sizeof kFrameMagic);
    w.u16(kProtocolVersion);
    w.u16(static_cast<uint16_t>(type));
    w.u32(static_cast<uint32_t>(payload.size()));
    if (!payload.empty())
        w.bytes(payload.data(), payload.size());
    w.u64(fnv1a64(payload.data(), payload.size()));
    return w.take();
}

FrameHeader
decodeFrameHeader(const uint8_t *bytes, uint32_t maxPayloadBytes)
{
    FrameHeader h;
    ByteReader r(bytes, kFrameHeaderBytes);
    uint8_t magic[sizeof kFrameMagic];
    r.bytes(magic, sizeof magic);
    const uint16_t version = r.u16();
    h.type = static_cast<MsgType>(r.u16());
    h.length = r.u32();
    if (std::memcmp(magic, kFrameMagic, sizeof magic) != 0) {
        h.defect = FrameDefect::BadMagic;
        h.error = "bad frame magic (want \"QSV1\")";
    } else if (version != kProtocolVersion) {
        h.defect = FrameDefect::VersionMismatch;
        h.error = "protocol version mismatch: got " +
                  std::to_string(version) + ", this peer speaks " +
                  std::to_string(kProtocolVersion);
    } else if (h.length > maxPayloadBytes) {
        h.defect = FrameDefect::Oversized;
        h.error = "oversized frame payload: " + std::to_string(h.length) +
                  " bytes exceeds the " + std::to_string(maxPayloadBytes) +
                  "-byte cap";
    }
    return h;
}

bool
frameChecksumMatches(const uint8_t *body, uint32_t length)
{
    return ByteReader(body + length, kFrameTrailerBytes).u64() ==
           fnv1a64(body, length);
}

Frame
decodeFrame(const uint8_t *data, size_t size, uint32_t maxPayloadBytes)
{
    if (size < kFrameHeaderBytes)
        throw SerializeError("truncated frame header");
    const FrameHeader h = decodeFrameHeader(data, maxPayloadBytes);
    if (h.defect != FrameDefect::None)
        throw SerializeError(h.error);
    const uint8_t *body = data + kFrameHeaderBytes;
    const size_t bodySize = size - kFrameHeaderBytes;
    const size_t want = size_t{h.length} + kFrameTrailerBytes;
    if (bodySize < want)
        throw SerializeError("truncated frame payload");
    if (!frameChecksumMatches(body, h.length))
        throw SerializeError("frame payload checksum mismatch");
    if (bodySize > want) {
        throw SerializeError("trailing bytes after frame: " +
                             std::to_string(bodySize - want) + " unread");
    }
    return Frame{h.type, std::vector<uint8_t>(body, body + h.length)};
}

// ---- message payloads --------------------------------------------

namespace {

void
encodeOptions(ByteWriter &w, const CompileOptions &o)
{
    w.f64(o.threshold);
    w.i32(o.maxSamples);
    w.i32(o.maxLayers);
    w.i32(o.blockSize);
    w.u64(o.seed);
    w.u8(static_cast<uint8_t>(o.selectionMode));
}

CompileOptions
decodeOptions(ByteReader &r)
{
    CompileOptions o;
    o.threshold = r.f64();
    o.maxSamples = r.i32();
    o.maxLayers = r.i32();
    o.blockSize = r.i32();
    o.seed = r.u64();
    const uint8_t mode = r.u8();
    if (mode > static_cast<uint8_t>(SelectionMode::BlockBound))
        throw SerializeError("bad selection mode " +
                             std::to_string(mode));
    o.selectionMode = static_cast<SelectionMode>(mode);
    return o;
}

void
encodeNamedValues(ByteWriter &w,
                  const std::vector<std::pair<std::string, uint64_t>> &kv)
{
    w.u32(static_cast<uint32_t>(kv.size()));
    for (const auto &[name, value] : kv) {
        w.str(name);
        w.u64(value);
    }
}

std::vector<std::pair<std::string, uint64_t>>
decodeNamedValues(ByteReader &r)
{
    const uint32_t n = r.u32();
    std::vector<std::pair<std::string, uint64_t>> kv;
    kv.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
        std::string name = r.str();
        const uint64_t value = r.u64();
        kv.emplace_back(std::move(name), value);
    }
    return kv;
}

JobState
decodeState(ByteReader &r)
{
    const uint8_t raw = r.u8();
    if (raw > static_cast<uint8_t>(JobState::Expired))
        throw SerializeError("bad job state " + std::to_string(raw));
    return static_cast<JobState>(raw);
}

} // namespace

void
SubmitRequest::encode(ByteWriter &w) const
{
    w.i32(priority);
    w.f64(deadlineSeconds);
    encodeOptions(w, options);
    w.str(tenant);
    w.str(submissionKey);
    w.str(qasm);
}

SubmitRequest
SubmitRequest::decode(ByteReader &r)
{
    SubmitRequest m;
    m.priority = r.i32();
    m.deadlineSeconds = r.f64();
    m.options = decodeOptions(r);
    m.tenant = r.str();
    m.submissionKey = r.str();
    m.qasm = r.str();
    return m;
}

void
SubmitReply::encode(ByteWriter &w) const
{
    w.u64(jobId);
    w.u8(accepted ? 1 : 0);
    w.u8(static_cast<uint8_t>(state));
    w.str(detail);
    w.u8(deduplicated ? 1 : 0);
    w.f64(retryAfterSeconds);
}

SubmitReply
SubmitReply::decode(ByteReader &r)
{
    SubmitReply m;
    m.jobId = r.u64();
    m.accepted = r.u8() != 0;
    m.state = decodeState(r);
    m.detail = r.str();
    m.deduplicated = r.u8() != 0;
    m.retryAfterSeconds = r.f64();
    return m;
}

void
StatusRequest::encode(ByteWriter &w) const
{
    w.u64(jobId);
}

StatusRequest
StatusRequest::decode(ByteReader &r)
{
    StatusRequest m;
    m.jobId = r.u64();
    return m;
}

void
JobStatus::encode(ByteWriter &w) const
{
    w.u64(jobId);
    w.u8(known ? 1 : 0);
    w.u8(static_cast<uint8_t>(state));
    w.i32(exitCode);
    w.u32(queuePosition);
    w.u64(completionSeq);
    w.str(detail);
}

JobStatus
JobStatus::decode(ByteReader &r)
{
    JobStatus m;
    m.jobId = r.u64();
    m.known = r.u8() != 0;
    m.state = decodeState(r);
    m.exitCode = r.i32();
    m.queuePosition = r.u32();
    m.completionSeq = r.u64();
    m.detail = r.str();
    return m;
}

void
ResultRequest::encode(ByteWriter &w) const
{
    w.u64(jobId);
    w.u8(wait ? 1 : 0);
    w.f64(timeoutSeconds);
}

ResultRequest
ResultRequest::decode(ByteReader &r)
{
    ResultRequest m;
    m.jobId = r.u64();
    m.wait = r.u8() != 0;
    m.timeoutSeconds = r.f64();
    return m;
}

void
ResultReply::encode(ByteWriter &w) const
{
    status.encode(w);
    w.u32(qubits);
    w.u64(originalCnots);
    w.u64(blocks);
    w.u64(okBlocks);
    w.f64(threshold);
    w.u32(static_cast<uint32_t>(samples.size()));
    for (const SampleResult &s : samples) {
        w.str(s.qasm);
        w.u64(s.cnotCount);
        w.f64(s.distanceBound);
    }
    encodeNamedValues(w, metrics);
}

ResultReply
ResultReply::decode(ByteReader &r)
{
    ResultReply m;
    m.status = JobStatus::decode(r);
    m.qubits = r.u32();
    m.originalCnots = r.u64();
    m.blocks = r.u64();
    m.okBlocks = r.u64();
    m.threshold = r.f64();
    const uint32_t n = r.u32();
    m.samples.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
        SampleResult s;
        s.qasm = r.str();
        s.cnotCount = r.u64();
        s.distanceBound = r.f64();
        m.samples.push_back(std::move(s));
    }
    m.metrics = decodeNamedValues(r);
    return m;
}

void
CancelRequest::encode(ByteWriter &w) const
{
    w.u64(jobId);
}

CancelRequest
CancelRequest::decode(ByteReader &r)
{
    CancelRequest m;
    m.jobId = r.u64();
    return m;
}

void
CancelReply::encode(ByteWriter &w) const
{
    w.u64(jobId);
    w.u8(static_cast<uint8_t>(outcome));
}

CancelReply
CancelReply::decode(ByteReader &r)
{
    CancelReply m;
    m.jobId = r.u64();
    const uint8_t raw = r.u8();
    if (raw > static_cast<uint8_t>(CancelOutcome::AlreadyDone))
        throw SerializeError("bad cancel outcome " + std::to_string(raw));
    m.outcome = static_cast<CancelOutcome>(raw);
    return m;
}

void
StatsReply::encode(ByteWriter &w) const
{
    encodeNamedValues(w, stats);
}

StatsReply
StatsReply::decode(ByteReader &r)
{
    StatsReply m;
    m.stats = decodeNamedValues(r);
    return m;
}

void
ShutdownRequest::encode(ByteWriter &w) const
{
    w.u8(drain ? 1 : 0);
}

ShutdownRequest
ShutdownRequest::decode(ByteReader &r)
{
    ShutdownRequest m;
    m.drain = r.u8() != 0;
    return m;
}

void
ErrorReply::encode(ByteWriter &w) const
{
    w.i32(exitCode);
    w.str(message);
}

ErrorReply
ErrorReply::decode(ByteReader &r)
{
    ErrorReply m;
    m.exitCode = r.i32();
    m.message = r.str();
    return m;
}

void
RetryReply::encode(ByteWriter &w) const
{
    status.encode(w);
    w.f64(retryAfterSeconds);
}

RetryReply
RetryReply::decode(ByteReader &r)
{
    RetryReply m;
    m.status = JobStatus::decode(r);
    m.retryAfterSeconds = r.f64();
    return m;
}

} // namespace quest::service

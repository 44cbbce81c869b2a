// Table of the APIs an MVM program can invoke via the SYS instruction.
//
// The split between benign and sensitive ids mirrors the Windows API surface
// static detectors key on (file/registry/network/process-manipulation
// primitives vs. ordinary runtime services). Sensitive ids start at 0x0100.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace mpass::vm {

enum class Api : std::uint16_t {
  // ---- benign runtime services (not recorded in behavior traces unless
  //      they have observable output effects, like Print/WriteFile).
  Print = 0x0001,        // r0=ptr, r1=len                  [traced]
  GetTime = 0x0002,      // -> r0 (deterministic)
  OpenFile = 0x0003,     // r0=name ptr, r1=len -> handle   [traced]
  ReadFile = 0x0004,     // r0=h, r1=buf, r2=len -> nread
  WriteFile = 0x0005,    // r0=h, r1=buf, r2=len            [traced]
  CloseFile = 0x0006,    // r0=h
  Alloc = 0x0007,        // r0=size -> ptr
  GetEnv = 0x0008,       // r0=buf, r1=len -> written
  MsgBox = 0x0009,       // r0=ptr, r1=len                  [traced]
  Rand = 0x000A,         // -> r0 (deterministic stream)
  Sleep = 0x000B,        // r0=ms
  ExitProcess = 0x000C,  //                                  [traced]
  VProtect = 0x000D,     // r0=addr, r1=len, r2=prot(1=W,2=X)
  GetSelfSize = 0x000E,  // -> r0 raw file size
  ReadSelf = 0x000F,     // r0=file off, r1=buf, r2=len -> nread
  Checksum = 0x0010,     // r0=ptr, r1=len -> crc32

  // ---- sensitive / malicious APIs (all traced).
  RegSetAutorun = 0x0100,  // r0=value ptr, r1=len
  RegDeleteKey = 0x0101,   // r0=key hash
  Connect = 0x0102,        // r0=host id, r1=port -> sock
  Send = 0x0103,           // r0=sock, r1=buf, r2=len
  Recv = 0x0104,           // r0=sock, r1=buf, r2=len -> nread
  EnumFiles = 0x0105,      // r0=buf, r1=cap -> name len (0 = done)
  EncryptFile = 0x0106,    // r0=name ptr, r1=len, r2=key
  DeleteShadow = 0x0107,   //
  KeylogStart = 0x0108,    //
  KeylogDump = 0x0109,     // r0=buf, r1=cap -> len
  InjectProc = 0x010A,     // r0=pid, r1=buf, r2=len
  CreateProc = 0x010B,     // r0=name ptr, r1=len
  WriteExe = 0x010C,       // r0=name ptr, r1=nlen, r2=buf, r3=blen
  SetHidden = 0x010D,      // r0=name ptr, r1=len
  Screenshot = 0x010E,     // r0=buf, r1=cap -> len
  StealCreds = 0x010F,     // r0=buf, r1=cap -> len
};

/// True for ids in the sensitive range.
constexpr bool is_sensitive(std::uint16_t api) { return api >= 0x0100; }
constexpr bool is_sensitive(Api api) {
  return is_sensitive(static_cast<std::uint16_t>(api));
}

/// True for APIs with no legitimate use (the sandbox's malice verdict).
/// Gray-area sensitive APIs -- Connect/Send/Recv/RegSetAutorun/EnumFiles --
/// are also used by benign telemetry and auto-updaters, exactly the
/// ambiguity real static detectors must resolve from code/data bytes.
constexpr bool is_hard_malicious(std::uint16_t api) {
  switch (static_cast<Api>(api)) {
    case Api::EncryptFile:
    case Api::DeleteShadow:
    case Api::KeylogStart:
    case Api::KeylogDump:
    case Api::InjectProc:
    case Api::WriteExe:
    case Api::SetHidden:
    case Api::RegDeleteKey:
    case Api::Screenshot:
    case Api::StealCreds:
      return true;
    default:
      return false;
  }
}
constexpr bool is_hard_malicious(Api api) {
  return is_hard_malicious(static_cast<std::uint16_t>(api));
}

/// Canonical API name ("RegSetAutorun", ...); "Api_<hex>" for unknown ids.
std::string_view api_name(std::uint16_t api);

/// True if the id is a defined Api.
bool api_exists(std::uint16_t api);

/// All defined API ids (benign then sensitive).
std::span<const std::uint16_t> all_apis();

/// All sensitive API ids.
std::span<const std::uint16_t> sensitive_apis();

/// All benign API ids.
std::span<const std::uint16_t> benign_apis();

}  // namespace mpass::vm

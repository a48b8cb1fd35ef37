(** Append-only, CRC32-framed write-ahead log with group commit.

    One segment file per {!create}: an 8-byte magic ["DSIGWAL1"], then
    per record a fixed header — payload length (u32 LE) and CRC-32 of
    the payload (u32 LE) — followed by the payload bytes.

    Durability follows the group-commit protocol: every {!append}
    writes the frame through to the operating system immediately (so a
    process crash loses nothing), but the file is fsynced only every
    [group_commit] appends (so an OS/power crash loses at most the
    unfsynced suffix — possibly with a torn final frame). {!load} is
    torn-tail tolerant: it returns the longest valid record prefix and
    reports where and why it stopped, never raising on corrupt input.

    The writer is single-owner; callers that share a [t] across domains
    must lock (see {!Keystate}). *)

type t

val create :
  ?telemetry:Dsig_telemetry.Telemetry.t ->
  ?group_commit:int ->
  ?fsync:bool ->
  string ->
  t
(** Open [path] for appending, writing the magic if the file is fresh.
    [group_commit] (default 8) is the number of appends coalesced per
    fsync; [fsync:false] turns the physical fsync off (the group-commit
    accounting still runs — for tests and throwaway stores).

    Telemetry: [dsig_store_appends_total] (a probe of {!appended}) /
    [dsig_store_fsyncs_total] counters and the [dsig_store_fsync_us] (fsync latency) and
    [dsig_store_group_commit_batch] (appends coalesced per fsync)
    histograms.
    @raise Invalid_argument if [group_commit] is not positive.
    @raise Sys_error if the file cannot be opened. *)

val append : t -> string -> unit
(** Frame and write one record (through to the OS), fsyncing when the
    group-commit budget fills. When [append] returns, the record is
    readable by {!load} after a process crash; it is durable against an
    OS crash only after the covering fsync (at most [group_commit - 1]
    appends later). *)

val sync : t -> unit
(** Force the pending group commit: flush and fsync now. No-op when
    nothing is pending. *)

val close : t -> unit
(** {!sync} then close the descriptor. Idempotent. *)

val rotate : t -> string -> t
(** [rotate t path] closes [t] and opens the log at [path] with [t]'s
    settings, telemetry and {!appended} count, so a segmented log keeps
    one [dsig_store_appends_total] probe. @raise Sys_error as {!create}. *)

val abort : t -> unit
(** Close the descriptor {e without} flushing or fsyncing — simulates a
    process kill for crash tests. Idempotent. *)

val path : t -> string

val appended : t -> int
(** Records appended through this handle and the handles it was
    {!rotate}d from. *)

val synced_bytes : t -> int
(** File offset covered by the last fsync (or flush when [fsync:false]);
    bytes beyond it may be lost or torn by an OS crash. *)

(** {1 Recovery} *)

type recovery = {
  records : string list;  (** valid record payloads, oldest first *)
  valid_bytes : int;  (** file offset of the first bad byte (or EOF) *)
  total_bytes : int;
  torn : string option;
      (** why reading stopped before EOF: ["short header"],
          ["bad length"], ["short payload"], ["bad crc"] *)
}

val load : string -> (recovery, string) result
(** Read a segment, stopping at the first bad frame (torn tail, flipped
    bit, truncated header). [Error] only for I/O failures and a missing
    or wrong magic — a valid-prefix file always yields [Ok]. *)

val repair : string -> (recovery, string) result
(** {!load}, then physically truncate the file to [valid_bytes] so the
    torn tail cannot shadow future appends. *)

val crc32 : string -> int32
(** The CRC-32 (IEEE 802.3) used for framing, exposed for tests. *)

(** Atomic checkpoint of a signer's durable key state.

    A snapshot captures everything the {!Keystate} journal would replay:
    the configuration fingerprint (so a store is never resumed under a
    different scheme), the next batch id, the confirmed rotation epoch
    and any unconfirmed rotation proposal. Its size does not depend on
    how many batches were ever sealed. It also records the WAL segment
    sequence it covers, so recovery replays only the segments written
    after it and older ones can be pruned.

    On-disk format: an 8-byte magic ["DSIGSNP3"], a u32 LE CRC-32 of the
    body, then the body — covered seq (u64), next batch id (u64),
    fingerprint (u32 length + bytes), rotation epoch (u32) and a
    pending-rotation record (u8 flag, then epoch u32 + batch id u64 when
    set). Snapshots of the per-key format (["DSIGSNP1"], ["DSIGSNP2"])
    are refused. Writes go to a temp file, fsync, then a rename — a
    crash leaves either the old snapshot or the new one, never a mix. *)

type t = {
  fingerprint : string;
  seq : int64;  (** WAL segments with sequence <= [seq] are covered *)
  next_batch_id : int64;
  epoch : int;  (** confirmed rotation epoch (0 until the first cutover) *)
  pending_rotation : (int * int64) option;
      (** a journaled rotation propose (epoch, staged batch id) that has
          not been confirmed — recovery rolls it back *)
}

val filename : string
(** ["snapshot"] — the live snapshot's name inside a store directory. *)

val encode : t -> string
val decode : string -> (t, string) result
(** Total: [Error] on a bad or old magic, CRC mismatch, or truncation
    (with the failing byte offset). *)

val save : dir:string -> t -> unit
(** Atomic write to [dir/snapshot] (temp file + fsync + rename). *)

val load : dir:string -> (t option, string) result
(** [Ok None] when no snapshot exists; [Error] on a corrupt or
    old-format one. *)

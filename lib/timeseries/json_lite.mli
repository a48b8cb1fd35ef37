(** A minimal recursive-descent JSON reader.

    The repo's exporters hand-roll their JSON output (no external JSON
    dependency); this is the matching reader, just big enough for the
    consumers in this tree — [dsig_cli timeline] parsing a
    [/timeseries] dump, and {!Trajectory} parsing [BENCH_smoke.json]
    snapshots. It accepts standard JSON; [\u] escapes outside Latin-1
    degrade to ['?']. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Whole-string parse; trailing non-whitespace is an error. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on other constructors. *)

val to_float : t -> float option
val to_string : t -> string option
val to_list : t -> t list option

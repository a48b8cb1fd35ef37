(** In-process wiring of a set of DSig parties with immediate
    announcement delivery — the zero-network harness used by the test
    suite, the examples, and the latency microbenchmarks. (Deployments
    with modeled network and compute time live in {!Dsig_simnet}-based
    harnesses under [bench/].) *)

type t

val create :
  ?groups:(int -> int list list) ->
  ?seed:int64 ->
  ?auto_background:bool ->
  ?options:Options.t ->
  Config.t ->
  n:int ->
  unit ->
  t
(** [create cfg ~n ()] builds [n] parties (ids [0 .. n-1]), each with an
    EdDSA key pair registered in a shared PKI, a signer whose default
    group is everyone, and a verifier. [groups i] lists extra verifier
    groups for party [i]'s signer; [options] (default {!Options.default})
    configures every signer and verifier. With [auto_background]
    (default [true]) every signer's background plane is pumped to
    quiescence at creation and after each refill, announcements flowing
    directly into the other parties' verifier caches. Control frames
    route through {!Control_plane.deliver}. *)

val config : t -> Config.t
val n : t -> int
val signer : t -> int -> Signer.t
val verifier : t -> int -> Verifier.t
val pki : t -> Pki.t

val sign : t -> signer:int -> ?hint:int list -> string -> string
val verify : t -> verifier:int -> msg:string -> string -> bool

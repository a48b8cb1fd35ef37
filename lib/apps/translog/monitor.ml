module Logtree = Dsig_merkle.Logtree
module Tel = Dsig_telemetry.Telemetry
module Metric = Dsig_telemetry.Metric
module BU = Dsig_util.Bytesutil

type alarm =
  | Bad_signature
  | Wrong_log of { expected : int; got : int }
  | Split_view of { size : int; known_root : string; offered_root : string }
  | Inconsistent of { old_size : int; new_size : int }
  | No_proof of { old_size : int; new_size : int; reason : string }

let alarm_to_string = function
  | Bad_signature -> "checkpoint signature did not verify"
  | Wrong_log { expected; got } -> Printf.sprintf "checkpoint for log %d, expected %d" got expected
  | Split_view { size; known_root; offered_root } ->
      Printf.sprintf "SPLIT VIEW at size %d: known root %s, offered %s" size
        (BU.to_hex known_root) (BU.to_hex offered_root)
  | Inconsistent { old_size; new_size } ->
      Printf.sprintf "consistency proof %d..%d failed to verify" old_size new_size
  | No_proof { old_size; new_size; reason } ->
      Printf.sprintf "log refused consistency proof %d..%d: %s" old_size new_size reason

type verdict = Advanced | Stale | Duplicate | Alarmed of alarm

type t = {
  log_id : int;
  verify : msg:string -> signature:string -> bool;
  seen : (int, string) Hashtbl.t;  (* size -> the one root we accept there *)
  mutable head : Checkpoint.t option;
  mutable alarms : alarm list;  (* newest first *)
  mu : Mutex.t;
  c_observations : Metric.Counter.t;
  c_alarms : Metric.Counter.t;
  c_split_views : Metric.Counter.t;
}

let create ?(telemetry = Tel.default) ~log_id ~verify () =
  {
    log_id;
    verify;
    seen = Hashtbl.create 64;
    head = None;
    alarms = [];
    mu = Mutex.create ();
    c_observations = Tel.counter telemetry "dsig_translog_monitor_observations_total";
    c_alarms = Tel.counter telemetry "dsig_translog_monitor_alarms_total";
    c_split_views = Tel.counter telemetry "dsig_translog_split_views_total";
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let raise_alarm t a =
  t.alarms <- a :: t.alarms;
  Metric.Counter.incr t.c_alarms;
  (match a with Split_view _ -> Metric.Counter.incr t.c_split_views | _ -> ());
  Alarmed a

let accept t (cp : Checkpoint.t) = Hashtbl.replace t.seen cp.tree_size cp.root

let observe t (cp : Checkpoint.t) ~fetch_consistency =
  locked t (fun () ->
      Metric.Counter.incr t.c_observations;
      if not (Checkpoint.verify ~verify:t.verify cp) then raise_alarm t Bad_signature
      else if cp.log_id <> t.log_id then
        raise_alarm t (Wrong_log { expected = t.log_id; got = cp.log_id })
      else begin
        (* equivocation at an already-pinned size is the cheapest catch:
           no proof round-trip, just a root comparison *)
        match Hashtbl.find_opt t.seen cp.tree_size with
        | Some known when not (BU.equal_ct known cp.root) ->
            raise_alarm t
              (Split_view { size = cp.tree_size; known_root = known; offered_root = cp.root })
        | Some _ ->
            accept t cp;
            let advanced =
              match t.head with Some h -> cp.tree_size > h.Checkpoint.tree_size | None -> true
            in
            if advanced then begin
              t.head <- Some cp;
              Advanced
            end
            else if
              match t.head with
              | Some h -> cp.tree_size = h.Checkpoint.tree_size
              | None -> false
            then Duplicate
            else Stale
        | None -> (
            match t.head with
            | None ->
                (* first head: nothing to bridge from; pin it *)
                accept t cp;
                t.head <- Some cp;
                Advanced
            | Some head ->
                let old_cp, new_cp =
                  if cp.tree_size >= head.Checkpoint.tree_size then (head, cp) else (cp, head)
                in
                let old_size = old_cp.Checkpoint.tree_size
                and new_size = new_cp.Checkpoint.tree_size in
                if old_size = 0 then begin
                  (* everything extends the empty log (RFC 9162
                     §2.1.4.1: the consistency proof is empty) — no
                     round trip to demand *)
                  accept t cp;
                  if cp.tree_size > head.Checkpoint.tree_size then begin
                    t.head <- Some cp;
                    Advanced
                  end
                  else Stale
                end
                else
                (* demand proof that the two heads lie on one chain *)
                match fetch_consistency ~old_size ~new_size with
                | Error reason -> raise_alarm t (No_proof { old_size; new_size; reason })
                | Ok proof ->
                    if
                      Logtree.verify_consistency ~old_root:old_cp.Checkpoint.root ~old_size
                        ~new_root:new_cp.Checkpoint.root ~new_size proof
                    then begin
                      accept t cp;
                      if cp.tree_size > head.Checkpoint.tree_size then begin
                        t.head <- Some cp;
                        Advanced
                      end
                      else Stale
                    end
                    else raise_alarm t (Inconsistent { old_size; new_size }))
      end)

let head t = locked t (fun () -> t.head)
let alarms t = locked t (fun () -> List.rev t.alarms)
let split_views t =
  locked t (fun () ->
      List.length (List.filter (function Split_view _ -> true | _ -> false) t.alarms))

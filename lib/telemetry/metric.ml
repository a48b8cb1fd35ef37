module Counter = struct
  type t = int Atomic.t

  let create () = Atomic.make 0
  let incr ?(by = 1) t = if by > 0 then ignore (Atomic.fetch_and_add t by)
  let value = Atomic.get
end

module Gauge = struct
  type t = float Atomic.t

  let create () = Atomic.make 0.0
  let set = Atomic.set

  (* compares physically against the boxed float just read; retries if another writer won *)
  let rec add t d =
    let cur = Atomic.get t in
    if not (Atomic.compare_and_set t cur (cur +. d)) then add t d

  let value = Atomic.get
end

module Histogram = struct
  let num_buckets = 64
  let min_exp = -16

  type t = {
    mu : Mutex.t;
    counts : int array;
    mutable n : int;
    mutable total : float;
    mutable vmin : float;
    mutable vmax : float;
  }

  let create () =
    let counts = Array.make num_buckets 0 in
    { mu = Mutex.create (); counts; n = 0; total = 0.0; vmin = infinity; vmax = neg_infinity }

  (* smallest i with v <= 2^(min_exp + i), clamped to the bucket range.
     frexp gives v = m * 2^e with m in [0.5, 1), so 2^(e-1) <= v < 2^e:
     the bound is e unless v sits exactly on the power of two below. *)
  let bucket_index v =
    if Float.is_nan v || v <= ldexp 1.0 min_exp then 0
    else if v = infinity then num_buckets - 1
    else begin
      let m, e = Float.frexp v in
      let exp_needed = if m = 0.5 then e - 1 else e in
      Stdlib.min (num_buckets - 1) (Stdlib.max 0 (exp_needed - min_exp))
    end

  let bucket_upper_bound i = if i >= num_buckets - 1 then infinity else ldexp 1.0 (min_exp + i)

  (* nothing between lock and unlock can raise *)
  let add t v =
    if not (Float.is_nan v) then begin
      let i = bucket_index v in
      Mutex.lock t.mu;
      t.counts.(i) <- t.counts.(i) + 1;
      t.n <- t.n + 1;
      t.total <- t.total +. v;
      if v < t.vmin then t.vmin <- v;
      if v > t.vmax then t.vmax <- v;
      Mutex.unlock t.mu
    end

  let count t = Mutex.protect t.mu (fun () -> t.n)
  let sum t = Mutex.protect t.mu (fun () -> t.total)

  type snapshot = {
    counts : int array;
    n : int;
    total : float;
    vmin : float;
    vmax : float;
  }

  let snapshot (t : t) =
    Mutex.protect t.mu (fun () ->
        { counts = Array.copy t.counts; n = t.n; total = t.total; vmin = t.vmin; vmax = t.vmax })

  let empty =
    { counts = Array.make num_buckets 0; n = 0; total = 0.0; vmin = infinity; vmax = neg_infinity }

  let merge a b =
    {
      counts = Array.init num_buckets (fun i -> a.counts.(i) + b.counts.(i));
      n = a.n + b.n;
      total = a.total +. b.total;
      vmin = Stdlib.min a.vmin b.vmin;
      vmax = Stdlib.max a.vmax b.vmax;
    }

  let percentile s p =
    if s.n = 0 then 0.0
    else begin
      let rank =
        Stdlib.max 1
          (Stdlib.min s.n (int_of_float (ceil (p /. 100.0 *. float_of_int s.n))))
      in
      let rec walk i acc =
        if i >= num_buckets then s.vmax
        else begin
          let acc = acc + s.counts.(i) in
          if acc >= rank then Stdlib.min (bucket_upper_bound i) s.vmax else walk (i + 1) acc
        end
      in
      walk 0 0
    end

  let mean s = if s.n = 0 then 0.0 else s.total /. float_of_int s.n
end

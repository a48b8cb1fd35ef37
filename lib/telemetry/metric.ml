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

  (* [stats] holds the running sum, min and max in one flat float
     array, so updating them allocates nothing (a mutable float field in
     this mixed record would box every store) *)
  type t = { mu : Mutex.t; counts : int array; mutable n : int; stats : float array }

  let sum_ = 0
  let min_ = 1
  let max_ = 2

  let create () =
    {
      mu = Mutex.create ();
      counts = Array.make num_buckets 0;
      n = 0;
      stats = [| 0.0; infinity; neg_infinity |];
    }

  let lowest = ldexp 1.0 min_exp

  (* smallest i with v <= 2^(min_exp + i), clamped to the bucket range,
     read from v's bits: a finite v > 2^min_exp is normal, v = 1.f * 2^(e
     - 1023) with e its biased exponent, so 2^(e-1023) <= v < 2^(e-1022),
     and the bound is e - 1022 unless the fraction f is zero (v is the
     power of two itself). No [frexp] tuple is built. *)
  let bucket_index v =
    if Float.is_nan v || v <= lowest then 0
    else if v = infinity then num_buckets - 1
    else begin
      let bits = Int64.to_int (Int64.bits_of_float v) in
      let e = (bits lsr 52) land 0x7ff in
      let exp_needed = if bits land 0xf_ffff_ffff_ffff = 0 then e - 1023 else e - 1022 in
      Stdlib.min (num_buckets - 1) (exp_needed - min_exp)
    end

  let bucket_upper_bound i = if i >= num_buckets - 1 then infinity else ldexp 1.0 (min_exp + i)

  (* nothing between lock and unlock can raise or allocate *)
  let add t v =
    if not (Float.is_nan v) then begin
      let i = bucket_index v in
      let s = t.stats in
      Mutex.lock t.mu;
      t.counts.(i) <- t.counts.(i) + 1;
      t.n <- t.n + 1;
      s.(sum_) <- s.(sum_) +. v;
      if v < s.(min_) then s.(min_) <- v;
      if v > s.(max_) then s.(max_) <- v;
      Mutex.unlock t.mu
    end

  let count t = Mutex.protect t.mu (fun () -> t.n)
  let sum t = Mutex.protect t.mu (fun () -> t.stats.(sum_))

  type snapshot = {
    counts : int array;
    n : int;
    total : float;
    vmin : float;
    vmax : float;
  }

  let snapshot (t : t) =
    Mutex.protect t.mu (fun () ->
        {
          counts = Array.copy t.counts;
          n = t.n;
          total = t.stats.(sum_);
          vmin = t.stats.(min_);
          vmax = t.stats.(max_);
        })

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

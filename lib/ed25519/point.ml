module Fe = Fe25519

(* Extended coordinates: x = X/Z, y = Y/Z, x*y = T/Z. *)
type t = { x : Fe.t; y : Fe.t; z : Fe.t; t : Fe.t }

(* A sum or double before its last four multiplications: the point
   (E*F : G*H : F*G : E*H). Dropping E*H gives the projective (X:Y:Z)
   that a doubling needs, one multiplication cheaper. *)
type completed = { e : Fe.t; f : Fe.t; g : Fe.t; h : Fe.t }

(* An addend prepared once for many additions: (Y+X, Y-X, 2Z, 2dT). *)
type cached = { ypx : Fe.t; ymx : Fe.t; z2 : Fe.t; t2d : Fe.t }

let d = Fe.mul (Fe.neg (Fe.of_int 121665)) (Fe.inv (Fe.of_int 121666))
let d2 = Fe.add d d

(* 2^((p-1)/4) = 2 * (2^((p-5)/8))^2 squares to -1 *)
let sqrt_m1 =
  let two = Fe.of_int 2 in
  Fe.mul two (Fe.sq (Fe.pow22523 two))

let identity = { x = Fe.zero; y = Fe.one; z = Fe.one; t = Fe.zero }
let to_p3 c = { x = Fe.mul c.e c.f; y = Fe.mul c.g c.h; z = Fe.mul c.f c.g; t = Fe.mul c.e c.h }

let to_cached p =
  { ypx = Fe.add p.y p.x; ymx = Fe.sub p.y p.x; z2 = Fe.add p.z p.z; t2d = Fe.mul p.t d2 }

(* dbl-2008-hwcd for a = -1, from X, Y, Z only, with every output
   negated (E, F, G, H all flip sign, which leaves the point alone). *)
let dbl x y z =
  let a = Fe.sq x and b = Fe.sq y and zz = Fe.sq z in
  let h = Fe.add a b and g = Fe.sub a b in
  { e = Fe.sub h (Fe.sq (Fe.add x y)); f = Fe.add (Fe.add zz zz) g; g; h }

(* add-2008-hwcd-3 against a cached addend; [sub_cached] adds its
   negation, (Y-X, Y+X, 2Z, -2dT). *)
let add_cached p q =
  let a = Fe.mul (Fe.sub p.y p.x) q.ymx and b = Fe.mul (Fe.add p.y p.x) q.ypx in
  let c = Fe.mul p.t q.t2d and dd = Fe.mul p.z q.z2 in
  { e = Fe.sub b a; f = Fe.sub dd c; g = Fe.add dd c; h = Fe.add b a }

let sub_cached p q =
  let a = Fe.mul (Fe.sub p.y p.x) q.ypx and b = Fe.mul (Fe.add p.y p.x) q.ymx in
  let c = Fe.mul p.t q.t2d and dd = Fe.mul p.z q.z2 in
  { e = Fe.sub b a; f = Fe.add dd c; g = Fe.sub dd c; h = Fe.add b a }

let add p q = to_p3 (add_cached p (to_cached q))
let double p = to_p3 (dbl p.x p.y p.z)
let negate p = { p with x = Fe.neg p.x; t = Fe.neg p.t }

(* Odd multiples P, 3P, ..., (2n-1)P as cached addends. *)
let odd_multiples n p =
  let p2 = to_cached (double p) in
  let table = Array.make n (to_cached p) in
  let cur = ref p in
  for i = 1 to n - 1 do
    cur := to_p3 (add_cached !cur p2);
    table.(i) <- to_cached !cur
  done;
  table

(* Width-w NAF of the [len] bytes of a 32-byte little-endian scalar
   from byte [off]: v = sum d_i 2^i with every d_i zero or odd,
   |d_i| < 2^(w-1), and at most one nonzero digit in any w consecutive
   positions. 8·len + 1 digits cover any v < 2^(8·len). *)
let wnaf w ?(off = 0) ?(len = 32) k =
  if String.length k <> 32 then invalid_arg "Point: scalars are 32 bytes";
  let byte i = if i < len then Char.code (String.unsafe_get k (off + i)) else 0 in
  let window pos =
    let i = pos lsr 3 in
    ((byte i lor (byte (i + 1) lsl 8)) lsr (pos land 7)) land ((1 lsl w) - 1)
  in
  let n = (8 * len) + 1 in
  let naf = Array.make n 0 in
  let pos = ref 0 and carry = ref 0 in
  while !pos < n do
    let v = !carry + window !pos in
    if v land 1 = 0 then incr pos
    else begin
      if v < 1 lsl (w - 1) then begin
        naf.(!pos) <- v;
        carry := 0
      end
      else begin
        naf.(!pos) <- v - (1 lsl w);
        carry := 1
      end;
      pos := !pos + w
    end
  done;
  naf

let decompress s =
  if String.length s <> 32 then None
  else begin
    let sign = Char.code s.[31] lsr 7 = 1 in
    let y = Fe.of_bytes s in
    let y2 = Fe.sq y in
    let u = Fe.sub y2 Fe.one in
    let v = Fe.add (Fe.mul d y2) Fe.one in
    (* candidate root x = (u/v)^((p+3)/8) = u v^3 (u v^7)^((p-5)/8)
       (RFC 8032 §5.1.3) *)
    let v3 = Fe.mul v (Fe.sq v) in
    let x = Fe.mul (Fe.mul u v3) (Fe.pow22523 (Fe.mul u (Fe.mul v3 (Fe.sq (Fe.sq v))))) in
    let vx2 = Fe.mul v (Fe.sq x) in
    let x =
      if Fe.equal vx2 u then Some x
      else if Fe.equal vx2 (Fe.neg u) then Some (Fe.mul x sqrt_m1)
      else None
    in
    match x with
    | Some x when not (Fe.is_zero x && sign) ->
        let x = if Fe.is_negative x <> sign then Fe.neg x else x in
        Some { x; y; z = Fe.one; t = Fe.mul x y }
    | _ -> None
  end

let base =
  (* y = 4/5, sign bit 0: the base point has even x *)
  match decompress (Fe.to_bytes (Fe.mul (Fe.of_int 4) (Fe.inv (Fe.of_int 5)))) with
  | Some p -> p
  | None -> failwith "Point.base: internal error"

(* [2^128]P, by 128 doublings. *)
let times_2_128 p =
  let q = ref p in
  for _ = 1 to 128 do
    q := double !q
  done;
  !q

(* Odd multiples of P and of [2^128]P, for the two halves of a scalar. *)
type prepared = cached array * cached array

let prepare_width n p = (odd_multiples n p, odd_multiples n (times_2_128 p))
let prepare p = prepare_width 8 p

(* B, 3B, ..., 127B and the same multiples of [2^128]B, for width-8
   digits: 2 x 64 cached points, built when the module initialises so
   that no domain ever races to build them. *)
let base_tables = prepare_width 64 base

(* Straus: one doubling chain shared by every term, as long as the
   longest digit string; per term, an add or sub of a table entry at
   each nonzero digit. *)
let straus terms =
  let top =
    List.fold_left
      (fun m (naf, _) ->
        let i = ref (Array.length naf - 1) in
        while !i > m && naf.(!i) = 0 do decr i done;
        max m !i)
      (-1) terms
  in
  let acc = ref { e = Fe.zero; f = Fe.one; g = Fe.one; h = Fe.one } in
  for i = top downto 0 do
    let c = !acc in
    acc := dbl (Fe.mul c.e c.f) (Fe.mul c.g c.h) (Fe.mul c.f c.g);
    List.iter
      (fun (naf, table) ->
        if i < Array.length naf then begin
          let digit = naf.(i) in
          if digit > 0 then acc := add_cached (to_p3 !acc) table.(digit / 2)
          else if digit < 0 then acc := sub_cached (to_p3 !acc) table.(-digit / 2)
        end)
      terms
  done;
  to_p3 !acc

(* [k]P = [k_lo]P + [k_hi]([2^128]P) for k = k_lo + 2^128·k_hi: two
   terms of 129 digits each, so a chain over them is 128 doublings. *)
let split_terms w k (lo, hi) = [ (wnaf w ~len:16 k, lo); (wnaf w ~off:16 ~len:16 k, hi) ]
let base_terms s = split_terms 8 s base_tables

let multi_scalar_mul ?base:s pairs =
  let terms = List.map (fun (k, p) -> (wnaf 5 k, odd_multiples 8 p)) pairs in
  straus (match s with Some s -> base_terms s @ terms | None -> terms)

let prepared_mul ~base:s k p = straus (base_terms s @ split_terms 5 k p)
let scalar_mul k p = multi_scalar_mul [ (k, p) ]
let base_mul k = straus (base_terms k)

let compress p =
  let zinv = Fe.inv p.z in
  let enc = Bytes.of_string (Fe.to_bytes (Fe.mul p.y zinv)) in
  if Fe.is_negative (Fe.mul p.x zinv) then
    Bytes.set enc 31 (Char.chr (Char.code (Bytes.get enc 31) lor 0x80));
  Bytes.unsafe_to_string enc

let equal p q = Fe.equal (Fe.mul p.x q.z) (Fe.mul q.x p.z) && Fe.equal (Fe.mul p.y q.z) (Fe.mul q.y p.z)

(* -x^2 + y^2 = 1 + d x^2 y^2, multiplied through by Z^4 *)
let on_curve p =
  let x2 = Fe.sq p.x and y2 = Fe.sq p.y and z2 = Fe.sq p.z in
  Fe.equal (Fe.mul (Fe.sub y2 x2) z2) (Fe.add (Fe.sq z2) (Fe.mul d (Fe.mul x2 y2)))

module BU = Dsig_util.Bytesutil

let magic = "DSIGSNP3"
let filename = "snapshot"

type t = {
  fingerprint : string;
  seq : int64;
  next_batch_id : int64;
  epoch : int;
  pending_rotation : (int * int64) option;
}

let encode t =
  let body =
    BU.concat
      ([
         BU.u64_le t.seq;
         BU.u64_le t.next_batch_id;
         BU.u32_le (Int32.of_int (String.length t.fingerprint));
         t.fingerprint;
         BU.u32_le (Int32.of_int t.epoch);
       ]
      @
      match t.pending_rotation with
      | None -> [ "\000" ]
      | Some (e, b) -> [ "\001"; BU.u32_le (Int32.of_int e); BU.u64_le b ])
  in
  BU.concat [ magic; BU.u32_le (Wal.crc32 body); body ]

let decode data =
  let len = String.length data in
  let mlen = String.length magic in
  let fail pos what = Error (Printf.sprintf "snapshot: %s at byte %d" what pos) in
  if len < mlen + 4 then fail len "truncated header"
  else if String.sub data 0 mlen <> magic then
    if String.sub data 0 (mlen - 1) = "DSIGSNP" then
      Error "snapshot: per-key store format, which cannot be resumed"
    else fail 0 "bad magic"
  else
    let crc = BU.get_u32_le data mlen in
    let body = String.sub data (mlen + 4) (len - mlen - 4) in
    if Wal.crc32 body <> crc then fail mlen "crc mismatch"
    else begin
      let blen = String.length body in
      let pos = ref 0 in
      let take n what =
        if !pos + n > blen then failwith (Printf.sprintf "snapshot: %s at byte %d" what !pos);
        let p = !pos in
        pos := !pos + n;
        p
      in
      let u32 what =
        let v = Int32.to_int (BU.get_u32_le body (take 4 ("truncated " ^ what))) in
        if v < 0 then failwith ("snapshot: negative " ^ what);
        v
      in
      try
        let seq = BU.get_u64_le body (take 8 "truncated seq") in
        let next_batch_id = BU.get_u64_le body (take 8 "truncated next batch id") in
        let fp_len = u32 "fingerprint length" in
        let fingerprint = String.sub body (take fp_len "truncated fingerprint") fp_len in
        let epoch = u32 "epoch" in
        let pending_rotation =
          match body.[take 1 "truncated rotation flag"] with
          | '\000' -> None
          | _ ->
              let e = u32 "rotation epoch" in
              Some (e, BU.get_u64_le body (take 8 "truncated rotation batch"))
        in
        if !pos <> blen then failwith (Printf.sprintf "snapshot: trailing bytes at byte %d" !pos);
        Ok { fingerprint; seq; next_batch_id; epoch; pending_rotation }
      with Failure e -> Error e
    end

let save ~dir t =
  let path = Filename.concat dir filename in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (encode t);
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path

let load ~dir =
  let path = Filename.concat dir filename in
  if not (Sys.file_exists path) then Ok None
  else
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error e -> Error e
    | data -> ( match decode data with Ok t -> Ok (Some t) | Error e -> Error e)

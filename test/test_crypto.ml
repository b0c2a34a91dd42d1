(* Tests for the crypto substrate: FIPS/RFC vectors for SHA-256 and
   HMAC, SHA-256 against the int32 reference in [Sha256_ref] on each
   kernel the host has, Merkle proofs, Lamport and Merkle-scheme
   signatures, and deferred keys. *)

open Guillotine_crypto
module Prng = Guillotine_util.Prng

(* ---------------------------- SHA-256 ----------------------------- *)

(* A compression kernel, as the tests reach it: the one [Sha256] chose
   for this host (the hardware kernel where the CPU has the SHA
   extensions) or the portable OCaml kernel.  The two share contexts. *)
type kernel = {
  digest : string -> Sha256.digest;
  feed : Sha256.ctx -> string -> unit;
  finalize : Sha256.ctx -> Sha256.digest;
  digest_into : Sha256.ctx -> Bytes.t -> off:int -> len:int -> Bytes.t -> at:int -> unit;
  digest_slots : Sha256.ctx -> Bytes.t -> off:int -> count:int -> Bytes.t -> at:int -> unit;
}

let chosen =
  { digest = Sha256.digest; feed = Sha256.feed; finalize = Sha256.finalize;
    digest_into = Sha256.digest_into; digest_slots = Sha256.digest_slots }

let portable =
  { digest = Sha256.Portable.digest; feed = Sha256.Portable.feed;
    finalize = Sha256.Portable.finalize; digest_into = Sha256.Portable.digest_into;
    digest_slots = Sha256.Portable.digest_slots }

let test_sha256_fips_vectors k () =
  let cases =
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
        ^ "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
        "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
    ]
  in
  List.iter
    (fun (msg, expect) -> Alcotest.(check string) msg expect (Sha256.hex (k.digest msg)))
    cases

let test_sha256_million_a k () =
  Alcotest.(check string) "1M a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (k.digest (String.make 1_000_000 'a')))

let test_sha256_streaming_equals_oneshot () =
  let parts = [ "Guill"; ""; "otine "; "hyper"; "visor"; String.make 200 'x' ] in
  let whole = String.concat "" parts in
  let ctx = Sha256.init () in
  List.iter (Sha256.feed ctx) parts;
  Alcotest.(check string) "streaming" (Sha256.digest_hex whole)
    (Sha256.hex (Sha256.finalize ctx));
  Alcotest.(check string) "digest_concat" (Sha256.digest_hex whole)
    (Sha256.hex (Sha256.digest_concat parts))

let test_sha256_block_boundaries () =
  (* Lengths straddling the 55/56/63/64-byte padding edges. *)
  List.iter
    (fun n ->
      let s = String.make n 'q' in
      let ctx = Sha256.init () in
      String.iter (fun c -> Sha256.feed ctx (String.make 1 c)) s;
      Alcotest.(check string)
        (Printf.sprintf "len %d" n)
        (Sha256.digest_hex s)
        (Sha256.hex (Sha256.finalize ctx)))
    [ 0; 1; 55; 56; 57; 63; 64; 65; 127; 128; 129 ]

let test_sha256_finalize_once () =
  let ctx = Sha256.init () in
  ignore (Sha256.finalize ctx);
  Alcotest.check_raises "reuse"
    (Invalid_argument "Sha256.finalize: context already finalized") (fun () ->
      ignore (Sha256.finalize ctx))

let prop_sha256_avalanche =
  QCheck.Test.make ~name:"distinct strings hash distinctly" ~count:300
    QCheck.(pair string string)
    (fun (a, b) -> a = b || Sha256.digest a <> Sha256.digest b)

(* Feed [s] in pieces whose lengths cycle through [cuts]. *)
let chunked_digest k s cuts =
  let ctx = Sha256.init () in
  let cuts = Array.of_list (if cuts = [] then [ String.length s ] else cuts) in
  let rec go pos i =
    if pos < String.length s then begin
      let n = min (String.length s - pos) cuts.(i mod Array.length cuts) in
      k.feed ctx (String.sub s pos n);
      go (pos + n) (i + 1)
    end
  in
  go 0 0;
  k.finalize ctx

(* No shrinker: shrinking a 300-byte string one byte at a time takes
   minutes, and the printed input is enough to reproduce a failure. *)
let prop_sha256_matches_reference k =
  QCheck.Test.make ~name:"chunked digest = int32 reference" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(pair string (list int))
       QCheck.Gen.(pair (string_size (0 -- 300)) (list_size (0 -- 10) (1 -- 80))))
    (fun (s, cuts) ->
      let expect = Sha256_ref.digest s in
      String.equal (k.digest s) expect && String.equal (chunked_digest k s cuts) expect)

let test_sha256_long_matches_reference () =
  let prng = Prng.create 70_000L in
  let s = String.init 70_000 (fun _ -> Char.chr (Prng.int prng 256)) in
  Alcotest.(check string) "70 000 bytes" (Sha256.hex (Sha256_ref.digest s))
    (Sha256.digest_hex s)

(* A digest allocates its context (record, state and block buffer) and
   the result: 31 words, where a per-context schedule made it 97. *)
let test_sha256_allocation_budget () =
  let msg = String.make 32 'k' in
  let n = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Sha256.digest msg))
  done;
  let per_digest = (Gc.minor_words () -. before) /. float_of_int n in
  if per_digest > 35.0 then
    Alcotest.failf "32-byte digest allocates %.1f words (budget 35)" per_digest

(* The compression function allocates nothing: 20 digests of a 16 KiB
   slice (257 blocks each) take 0 minor words. *)
let test_sha256_compress_allocates_nothing k () =
  let src = Bytes.make 16384 'z' and out = Bytes.create 32 and ctx = Sha256.init () in
  let before = Gc.minor_words () in
  for _ = 1 to 20 do
    k.digest_into ctx src ~off:0 ~len:16384 out ~at:0
  done;
  Alcotest.(check (float 0.)) "5 140 compressions allocate nothing" 0.
    (Gc.minor_words () -. before)

(* [digest_into] through one reused context, at random offsets, lengths
   and slots, equals the int32 reference: lengths 0-1 100 cross every
   padding edge of up to 18 blocks, and 16 384 is a Lamport public key.
   The bytes around the slot stay as they were. *)
let prop_digest_into_matches_reference k =
  let ctx = Sha256.init () in
  QCheck.Test.make ~name:"digest_into = int32 reference" ~count:200
    (QCheck.make
       ~print:QCheck.Print.(quad int int int int64)
       QCheck.Gen.(
         quad (0 -- 70)
           (frequency [ (19, 0 -- 1100); (1, return 16384) ])
           (0 -- 70) ui64))
    (fun (off, len, at, seed) ->
      let prng = Prng.create seed in
      let src = Bytes.init (off + len + 3) (fun _ -> Char.chr (Prng.int prng 256)) in
      let out = Bytes.make (at + 35) '\xff' in
      k.digest_into ctx src ~off ~len out ~at;
      String.equal (Bytes.sub_string out at 32)
        (Sha256_ref.digest (Bytes.sub_string src off len))
      && Bytes.equal (Bytes.sub out 0 at) (Bytes.make at '\xff')
      && Bytes.equal (Bytes.sub out (at + 32) 3) (Bytes.make 3 '\xff'))

(* Each context owns its state and block buffer: two domains that
   hash at once (2 000 distinct messages of 0-199 bytes, then an h4
   key) get exactly the sequential digests and roots.  Chaining state
   or a block buffer shared between contexts fails this. *)
let test_sha256_two_domains () =
  let work salt =
    let digests =
      Array.init 2000 (fun i ->
          Sha256.digest (Printf.sprintf "%c%d%s" salt i (String.make (i mod 200) salt)))
    in
    let _, root = Signature.generate ~height:4 (Prng.create (Int64.of_int (Char.code salt))) in
    (digests, root)
  in
  let sequential = [ ('a', work 'a'); ('b', work 'b') ] in
  let arrived = Atomic.make 0 in
  let together salt () =
    Atomic.incr arrived;
    while Atomic.get arrived < 2 do
      Domain.cpu_relax ()
    done;
    work salt
  in
  let other = Domain.spawn (together 'b') in
  let mine = together 'a' () in
  let concurrent = [ ('a', mine); ('b', Domain.join other) ] in
  List.iter2
    (fun (salt, (digests, root)) (_, (digests', root')) ->
      let differ = ref 0 in
      Array.iteri (fun i d -> if not (String.equal d digests'.(i)) then incr differ) digests;
      Alcotest.(check int) (Printf.sprintf "domain %c: digests that differ" salt) 0 !differ;
      Alcotest.(check string) (Printf.sprintf "domain %c: h4 root" salt) (Sha256.hex root)
        (Sha256.hex root'))
    sequential concurrent

(* [digest_into] hashes any slice into any slot through a reused
   context, with no allocation: the slices of a 300-byte buffer at
   every length around the padding edges, against [digest] of the same
   bytes. *)
let test_sha256_digest_into () =
  let prng = Prng.create 31L in
  let src = Bytes.init 300 (fun _ -> Char.chr (Prng.int prng 256)) in
  let out = Bytes.make 100 '\xff' in
  let ctx = Sha256.init () in
  ignore (Sha256.finalize ctx);
  List.iter
    (fun (off, len, at) ->
      Sha256.digest_into ctx src ~off ~len out ~at;
      Alcotest.(check string)
        (Printf.sprintf "off %d len %d at %d" off len at)
        (Sha256.hex (Sha256.digest (Bytes.sub_string src off len)))
        (Sha256.hex (Bytes.sub_string out at 32)))
    [ (0, 0, 0); (3, 1, 68); (5, 55, 1); (0, 56, 7); (17, 57, 0); (1, 63, 60);
      (0, 64, 3); (100, 65, 0); (7, 127, 2); (44, 128, 9); (0, 300, 68); (299, 1, 0) ];
  Alcotest.check_raises "slice past the end"
    (Invalid_argument "Sha256.digest_into: slice out of range") (fun () ->
      Sha256.digest_into ctx src ~off:290 ~len:11 out ~at:0);
  Alcotest.check_raises "slot past the end"
    (Invalid_argument "Sha256.digest_into: slot out of range") (fun () ->
      Sha256.digest_into ctx src ~off:0 ~len:1 out ~at:69);
  let before = Gc.minor_words () in
  for k = 0 to 999 do
    Sha256.digest_into ctx src ~off:(k mod 200) ~len:32 out ~at:(k mod 68)
  done;
  Alcotest.(check (float 0.)) "1 000 digests allocate nothing" 0.
    (Gc.minor_words () -. before)

(* [digest_into] hands a slice's whole blocks to the kernel in one
   call, and [feed] the whole blocks of each string after topping up
   the context's buffer.  One call of 1, 2, 255, 256 and 257 blocks,
   from offsets 3 and 13 of a buffer and from offset 59 of a string
   (after a 5-byte feed), followed by 0 to 63 tail bytes, must equal
   the int32 reference and the portable kernel. *)
let test_sha256_whole_blocks_one_call () =
  let prng = Prng.create 257L in
  let src = Bytes.init ((257 * 64) + 80) (fun _ -> Char.chr (Prng.int prng 256)) in
  let out = Bytes.create 32 and ctx = Sha256.init () in
  List.iter
    (fun (blocks, tail) ->
      let len = (64 * blocks) + tail in
      List.iter
        (fun off ->
          let expect = Sha256_ref.digest (Bytes.sub_string src off len) in
          let label what = Printf.sprintf "%d blocks + %d at %d: %s" blocks tail off what in
          Sha256.digest_into ctx src ~off ~len out ~at:0;
          Alcotest.(check string) (label "digest_into") (Sha256.hex expect)
            (Sha256.hex (Bytes.to_string out));
          Sha256.Portable.digest_into ctx src ~off ~len out ~at:0;
          Alcotest.(check string) (label "portable") (Sha256.hex expect)
            (Sha256.hex (Bytes.to_string out)))
        [ 3; 13 ];
      let s = Bytes.sub_string src 0 (5 + len) in
      let ctx = Sha256.init () in
      Sha256.feed ctx (String.sub s 0 5);
      Sha256.feed ctx (String.sub s 5 len);
      Alcotest.(check string)
        (Printf.sprintf "%d blocks + %d fed at 59" blocks tail)
        (Sha256.hex (Sha256_ref.digest s))
        (Sha256.hex (Sha256.finalize ctx)))
    [ (1, 0); (2, 7); (255, 63); (256, 1); (257, 0) ]

(* [digest_slots] hashes a run of 32-byte slices into a run of slots
   in one call: 0, 1, 2, 255, 512 (a Lamport leaf) and 513 slices, from
   offsets 0, 3 and 13 of a buffer into slots from 0 and 7, must each
   equal the int32 reference of their slice and the portable call's
   bytes, and leave the bytes around the slots as they were.  A
   negative count, a slice past the source's end (or a count whose
   byte length overflows) and a slot past the output's end raise, and
   1 000 calls allocate nothing. *)
let test_sha256_digest_slots k () =
  let prng = Prng.create 513L in
  let src = Bytes.init ((513 * 32) + 13) (fun _ -> Char.chr (Prng.int prng 256)) in
  let out = Bytes.create ((513 * 32) + 10) and ref_out = Bytes.create ((513 * 32) + 10) in
  let ctx = Sha256.init () in
  List.iter
    (fun count ->
      List.iter
        (fun (off, at) ->
          let label what = Printf.sprintf "%d slots from %d at %d: %s" count off at what in
          Bytes.fill out 0 (Bytes.length out) '\xff';
          Bytes.fill ref_out 0 (Bytes.length ref_out) '\xff';
          k.digest_slots ctx src ~off ~count out ~at;
          Sha256.Portable.digest_slots ctx src ~off ~count ref_out ~at;
          for i = 0 to count - 1 do
            let expect = Sha256_ref.digest (Bytes.sub_string src (off + (32 * i)) 32) in
            let got = Bytes.sub_string out (at + (32 * i)) 32 in
            if not (String.equal got expect) then
              Alcotest.failf "%s" (label (Printf.sprintf "slot %d differs" i))
          done;
          Alcotest.(check bool) (label "= portable") true (Bytes.equal out ref_out);
          Alcotest.(check string) (label "bytes before the slots") (String.make at '\xff')
            (Bytes.sub_string out 0 at);
          let past = at + (32 * count) in
          Alcotest.(check string) (label "bytes after the slots")
            (String.make (Bytes.length out - past) '\xff')
            (Bytes.sub_string out past (Bytes.length out - past)))
        [ (0, 0); (0, 7); (3, 0); (3, 7); (13, 0); (13, 7) ])
    [ 0; 1; 2; 255; 512; 513 ];
  let raises what f =
    Alcotest.check_raises what (Invalid_argument ("Sha256.digest_slots: " ^ what)) f
  in
  raises "slice out of range" (fun () ->
      k.digest_slots ctx src ~off:0 ~count:(-1) out ~at:0);
  raises "slice out of range" (fun () ->
      k.digest_slots ctx src ~off:14 ~count:513 out ~at:0);
  raises "slice out of range" (fun () ->
      k.digest_slots ctx src ~off:0 ~count:(max_int / 16) out ~at:0);
  raises "slot out of range" (fun () ->
      k.digest_slots ctx src ~off:0 ~count:513 out ~at:11);
  raises "slot out of range" (fun () ->
      k.digest_slots ctx src ~off:0 ~count:1 out ~at:(-1));
  let before = Gc.minor_words () in
  for i = 0 to 999 do
    k.digest_slots ctx src ~off:(i mod 13) ~count:(i mod 5) out ~at:(i mod 7)
  done;
  Alcotest.(check (float 0.)) "1 000 calls allocate nothing" 0.
    (Gc.minor_words () -. before)

(* Where the kernel's flags list the SHA extensions, [Sha256] must have
   chosen the hardware kernel: a CPUID check that broke would otherwise
   fall back to the portable kernel, pass every other test and only run
   slower.  Skips where there is no /proc/cpuinfo or no sha_ni flag. *)
let test_sha256_hardware_where_listed () =
  let flags =
    match open_in "/proc/cpuinfo" with
    | exception Sys_error _ -> []
    | ic ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> []
          | line when String.starts_with ~prefix:"flags" line ->
              String.split_on_char ' ' (String.trim line)
          | _ -> scan ()
        in
        Fun.protect ~finally:(fun () -> close_in ic) scan
  in
  if Sys.word_size <> 64 || not (List.mem "sha_ni" flags) then Alcotest.skip ();
  Alcotest.(check bool) "hardware kernel chosen" true Sha256.hardware

(* ----------------------------- HMAC ------------------------------- *)

let test_hmac_rfc4231_vectors () =
  (* RFC 4231 test case 1 and 2. *)
  Alcotest.(check string) "tc1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.mac_hex ~key:(String.make 20 '\x0b') "Hi There");
  Alcotest.(check string) "tc2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.mac_hex ~key:"Jefe" "what do ya want for nothing?")

let test_hmac_long_key () =
  (* Keys longer than the block size are hashed first (RFC 4231 tc6). *)
  Alcotest.(check string) "tc6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.mac_hex
       ~key:(String.make 131 '\xaa')
       "Test Using Larger Than Block-Size Key - Hash Key First")

let test_hmac_verify () =
  let key = "secret" and msg = "heartbeat 42" in
  let tag = Hmac.mac ~key msg in
  Alcotest.(check bool) "accepts" true (Hmac.verify ~key ~msg ~tag);
  Alcotest.(check bool) "rejects wrong key" false (Hmac.verify ~key:"other" ~msg ~tag);
  let bad = String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) tag in
  Alcotest.(check bool) "rejects bit flip" false (Hmac.verify ~key ~msg ~tag:bad);
  Alcotest.(check bool) "rejects truncation" false
    (Hmac.verify ~key ~msg ~tag:(String.sub tag 0 16))

(* ----------------------------- Merkle ----------------------------- *)

let test_merkle_proofs_all_leaves () =
  let leaves = List.init 7 (fun i -> Printf.sprintf "leaf-%d" i) in
  let t = Merkle.build leaves in
  Alcotest.(check int) "leaf count" 7 (Merkle.leaf_count t);
  List.iteri
    (fun i leaf ->
      let proof = Merkle.prove t i in
      Alcotest.(check bool)
        (Printf.sprintf "leaf %d verifies" i)
        true
        (Merkle.verify ~root:(Merkle.root t) ~leaf proof))
    leaves

let test_merkle_rejects_wrong_leaf () =
  let t = Merkle.build [ "a"; "b"; "c"; "d" ] in
  let proof = Merkle.prove t 2 in
  Alcotest.(check bool) "wrong leaf" false
    (Merkle.verify ~root:(Merkle.root t) ~leaf:"x" proof)

let test_merkle_rejects_wrong_root () =
  let t = Merkle.build [ "a"; "b"; "c"; "d" ] in
  let t2 = Merkle.build [ "a"; "b"; "c"; "e" ] in
  let proof = Merkle.prove t 0 in
  Alcotest.(check bool) "wrong root" false
    (Merkle.verify ~root:(Merkle.root t2) ~leaf:"a" proof)

let test_merkle_single_leaf () =
  let t = Merkle.build [ "only" ] in
  let proof = Merkle.prove t 0 in
  Alcotest.(check bool) "single leaf" true
    (Merkle.verify ~root:(Merkle.root t) ~leaf:"only" proof)

let test_merkle_root_depends_on_order () =
  let a = Merkle.build [ "x"; "y" ] and b = Merkle.build [ "y"; "x" ] in
  Alcotest.(check bool) "order matters" true (Merkle.root a <> Merkle.root b)

let prop_merkle_proofs_verify =
  QCheck.Test.make ~name:"all proofs verify for random leaf sets" ~count:50
    QCheck.(list_of_size Gen.(1 -- 20) string)
    (fun leaves ->
      QCheck.assume (leaves <> []);
      let t = Merkle.build leaves in
      List.for_all
        (fun i ->
          Merkle.verify ~root:(Merkle.root t) ~leaf:(List.nth leaves i) (Merkle.prove t i))
        (List.init (List.length leaves) Fun.id))

(* ---------------------------- Lamport ----------------------------- *)

let test_lamport_sign_verify () =
  let prng = Prng.create 100L in
  let sk, pk = Lamport.generate prng in
  let msg = "the model requests a port" in
  let sg = Lamport.sign sk msg in
  Alcotest.(check bool) "verifies" true (Lamport.verify pk ~msg sg);
  Alcotest.(check bool) "wrong message" false (Lamport.verify pk ~msg:"tampered" sg)

let test_lamport_one_time_enforced () =
  let prng = Prng.create 101L in
  let sk, _ = Lamport.generate prng in
  ignore (Lamport.sign sk "first");
  Alcotest.check_raises "reuse" (Invalid_argument "Lamport.sign: one-time key reused")
    (fun () -> ignore (Lamport.sign sk "second"))

let test_lamport_cross_key_rejects () =
  let prng = Prng.create 102L in
  let sk1, _ = Lamport.generate prng in
  let _, pk2 = Lamport.generate prng in
  let sg = Lamport.sign sk1 "msg" in
  Alcotest.(check bool) "other key rejects" false (Lamport.verify pk2 ~msg:"msg" sg)

(* Verification hashes every revealed preimage: one bit flipped in
   preimage 0, 1, 254 or 255 (its first byte's low bit or its last
   byte's high bit) fails a Lamport signature, and an h4 signature
   through its wire bytes. *)
let test_every_revealed_preimage_checked () =
  let flipped s ~at i bit =
    let b = Bytes.of_string s and pos = at + (32 * i) + if bit = 0x01 then 0 else 31 in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor bit));
    Bytes.to_string b
  in
  let each f =
    List.iter (fun i -> List.iter (fun bit -> f i bit) [ 0x01; 0x80 ]) [ 0; 1; 254; 255 ]
  in
  let msg = "every preimage counts" in
  let sk, pk = Lamport.generate (Prng.create 108L) in
  let sg = Lamport.sign sk msg in
  Alcotest.(check bool) "lamport verifies" true (Lamport.verify pk ~msg sg);
  each (fun i bit ->
      if Lamport.verify pk ~msg (flipped sg ~at:0 i bit) then
        Alcotest.failf "lamport: preimage %d with bit %#x flipped verifies" i bit);
  let signer, root = Signature.generate ~height:4 (Prng.create 109L) in
  let wire = Signature.encode (Signature.sign signer msg) in
  let verifies w =
    match Signature.decode w with
    | Some sg -> Signature.verify root ~msg sg
    | None -> false
  in
  Alcotest.(check bool) "h4 verifies" true (verifies wire);
  each (fun i bit ->
      if verifies (flipped wire ~at:(4 + (2 * 256 * 32)) i bit) then
        Alcotest.failf "h4: preimage %d with bit %#x flipped verifies" i bit)

(* ------------------------ Merkle signatures ----------------------- *)

let test_signature_multi_sign () =
  let prng = Prng.create 103L in
  let signer, pk = Signature.generate ~height:3 prng in
  Alcotest.(check int) "capacity" 8 (Signature.capacity signer);
  for i = 1 to 8 do
    let msg = Printf.sprintf "message %d" i in
    let sg = Signature.sign signer msg in
    Alcotest.(check bool) (Printf.sprintf "sig %d verifies" i) true
      (Signature.verify pk ~msg sg);
    Alcotest.(check bool) (Printf.sprintf "sig %d binds msg" i) false
      (Signature.verify pk ~msg:"other" sg)
  done;
  Alcotest.(check int) "exhausted" 0 (Signature.remaining signer);
  Alcotest.check_raises "exhaustion" (Invalid_argument "Signature.sign: key exhausted")
    (fun () -> ignore (Signature.sign signer "one more"))

let test_signature_encode_decode () =
  let prng = Prng.create 104L in
  let signer, pk = Signature.generate ~height:2 prng in
  let msg = "wire me" in
  let sg = Signature.sign signer msg in
  let wire = Signature.encode sg in
  (match Signature.decode wire with
  | None -> Alcotest.fail "decode failed"
  | Some sg' ->
    Alcotest.(check bool) "decoded verifies" true (Signature.verify pk ~msg sg'));
  Alcotest.(check bool) "garbage rejected" true (Signature.decode "garbage" = None);
  (* Truncated wire data must not decode. *)
  let truncated = String.sub wire 0 (String.length wire - 1) in
  Alcotest.(check bool) "truncated rejected" true (Signature.decode truncated = None)

let test_signature_cross_signer_rejects () =
  let prng = Prng.create 105L in
  let s1, _ = Signature.generate ~height:2 prng in
  let _, pk2 = Signature.generate ~height:2 prng in
  let sg = Signature.sign s1 "msg" in
  Alcotest.(check bool) "cross rejects" false (Signature.verify pk2 ~msg:"msg" sg)

(* The wire index names the leaf, so it must agree with the path's
   sides: the one-time key, its signature and the path of leaf 0 under
   any other index verify neither as a signature nor as a Merkle
   proof. *)
let test_signature_rewritten_index_rejected () =
  let signer, pk = Signature.generate ~height:4 (Prng.create 106L) in
  let msg = "bound to leaf 0" in
  let wire = Signature.encode (Signature.sign signer msg) in
  let with_index i =
    let b = Bytes.of_string wire in
    Bytes.set_uint16_be b 0 i;
    Bytes.to_string b
  in
  let verifies w =
    match Signature.decode w with
    | Some sg -> Signature.verify pk ~msg sg
    | None -> false
  in
  Alcotest.(check bool) "index 0 verifies" true (verifies (with_index 0));
  List.iter
    (fun i ->
      if verifies (with_index i) then Alcotest.failf "index %d verifies" i)
    (List.init 15 succ @ [ 16; 17; 31; 32; 255; 256; 4096; 32768; 65535 ]);
  (* The leaf is the digest of the wire's leaf key; the path is the
     last four 33-byte entries (a side byte, then a digest). *)
  let leaf = Sha256.digest (String.sub wire 4 (2 * 256 * 32)) in
  let path =
    List.init 4 (fun k ->
        let off = String.length wire - ((4 - k) * 33) in
        (String.sub wire (off + 1) 32, if wire.[off] = 'L' then `Left else `Right))
  in
  Alcotest.(check bool) "proof at index 0" true
    (Merkle.verify ~root:pk ~leaf { Merkle.index = 0; path });
  List.iter
    (fun index ->
      if Merkle.verify ~root:pk ~leaf { Merkle.index; path } then
        Alcotest.failf "Merkle proof of leaf 0 verifies at index %d" index)
    (-16 :: -1 :: List.init 0xFFFF succ)

(* One byte changed anywhere in the header or the path, or at sampled
   offsets in the leaf key and the one-time signature, fails decoding
   or fails verification. *)
let test_signature_byte_changes_rejected () =
  let signer, pk = Signature.generate ~height:4 (Prng.create 107L) in
  let msg = "every byte counts" in
  let _ = Signature.sign signer "leaf 0" in
  let wire = Signature.encode (Signature.sign signer msg) in
  let n = String.length wire in
  let key_at = 4 and ots_at = 4 + (2 * 256 * 32) and path_at = n - (4 * 33) in
  let changed pos c =
    let b = Bytes.of_string wire in
    Bytes.set b pos c;
    match Signature.decode (Bytes.to_string b) with
    | Some sg when Signature.verify pk ~msg sg ->
        Alcotest.failf "byte %d set to %#x still verifies" pos (Char.code c)
    | _ -> ()
  in
  let flips pos =
    let c = Char.code wire.[pos] in
    List.iter (fun m -> changed pos (Char.chr (c lxor m))) [ 0x01; 0x80; 0xFF ]
  in
  (* Every other value of the index and length bytes. *)
  for pos = 0 to 3 do
    for v = 0 to 255 do
      if Char.chr v <> wire.[pos] then changed pos (Char.chr v)
    done
  done;
  for pos = path_at to n - 1 do
    flips pos;
    match wire.[pos] with
    | 'L' -> changed pos 'R'
    | 'R' -> changed pos 'L'
    | _ -> ()
  done;
  List.iter
    (fun k ->
      flips (key_at + (k * 257));
      flips (ots_at + (k * 127)))
    (List.init 64 Fun.id)

(* Keys as the string-per-preimage reference makes them: over random
   seeds and heights 0-3, the root, every leaf's public key and one
   signature per leaf (its wire bytes carry the leaf key, the revealed
   preimages and the path) must equal [Lamport_ref]'s. *)
let prop_keys_match_reference =
  QCheck.Test.make ~name:"keys = string-per-preimage reference" ~count:20
    QCheck.(pair int64 (int_range 0 3))
    (fun (seed, height) ->
      let signer, root = Signature.generate ~height (Prng.create seed) in
      let reference = Lamport_ref.scheme ~height (Prng.create seed) in
      String.equal root (Lamport_ref.root reference)
      && List.for_all
           (fun i ->
             let msg = Printf.sprintf "leaf %d of %Ld" i seed in
             String.equal
               (Signature.encode (Signature.sign signer msg))
               (Lamport_ref.encoded_signature reference i msg))
           (List.init (1 lsl height) Fun.id))

(* Roots taken from the string-per-preimage implementation. *)
let test_roots_pinned () =
  let root height seed = Sha256.hex (snd (Signature.generate ~height (Prng.create seed))) in
  Alcotest.(check string) "h5, seed 1"
    "b8053b9e115731f925d8fc9e06cc97bb0fd4b63a01038c30fd3990613d4902ad" (root 5 1L);
  Alcotest.(check string) "h8, seed 7"
    "e91000f1214e427a2be34c0e44e9ff10199da5352329d7568f842617795fbb2b" (root 8 7L)

(* A leaf's preimages and digests live in two 16 KiB buffers (major
   heap); the minor heap sees a context and a few records per leaf, and
   a Merkle node digest or two: 69.9 words.  The string-per-preimage
   leaf read 65 367, and a leaf with a context per digest and per
   Merkle node 340. *)
let test_keygen_allocation_budget () =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Signature.generate ~height:5 (Prng.create 3L)));
  let per_leaf = (Gc.minor_words () -. before) /. 32. in
  if per_leaf > 80. then
    Alcotest.failf "an h5 key allocates %.0f minor words per leaf (budget 80)" per_leaf

(* One context serves the whole verification: the Lamport digests, the
   leaf digest and the authentication path, with each Merkle node
   assembled in one scratch buffer.  With a fresh context and a
   [digest_concat] list per node, a verification under an h8 key
   allocated 1 214 minor words. *)
let test_verify_allocation_budget () =
  let signer, root = Signature.generate ~height:8 (Prng.create 11L) in
  let msg = "quote 1" in
  let sg = Signature.sign signer msg in
  let n = 20 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    if not (Signature.verify root ~msg sg) then Alcotest.fail "signature rejected"
  done;
  let per_verify = (Gc.minor_words () -. before) /. float_of_int n in
  if per_verify > 150.0 then
    Alcotest.failf "an h8 verification allocates %.0f minor words (budget 150)" per_verify

(* ------------------------- Deferred keys -------------------------- *)

let test_defer_matches_generate () =
  for height = 0 to 6 do
    let seed = Int64.of_int (200 + height) in
    let eager_prng = Prng.create seed and lazy_prng = Prng.create seed in
    let signer, root = Signature.generate ~height eager_prng in
    let key = Signature.defer ~height lazy_prng in
    let label what = Printf.sprintf "height %d: %s" height what in
    Alcotest.(check int64) (label "parent's next draw") (Prng.int64 eager_prng)
      (Prng.int64 lazy_prng);
    let signer', root' = Lazy.force key in
    Alcotest.(check string) (label "root") (Sha256.hex root) (Sha256.hex root');
    let first s = Signature.encode (Signature.sign s "first message") in
    Alcotest.(check string) (label "first signature")
      (Sha256.digest_hex (first signer))
      (Sha256.digest_hex (first signer'))
  done

let test_defer_checks_height_at_call () =
  let prng = Prng.create 13L in
  Alcotest.check_raises "height 13" (Invalid_argument "Signature.defer: height")
    (fun () -> ignore (Signature.defer ~height:13 prng));
  Alcotest.check_raises "height -1" (Invalid_argument "Signature.defer: height")
    (fun () -> ignore (Signature.defer ~height:(-1) prng))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "FIPS vectors" `Quick (test_sha256_fips_vectors chosen);
          Alcotest.test_case "million a" `Slow (test_sha256_million_a chosen);
          Alcotest.test_case "streaming = one-shot" `Quick
            test_sha256_streaming_equals_oneshot;
          Alcotest.test_case "block boundaries" `Quick test_sha256_block_boundaries;
          Alcotest.test_case "finalize once" `Quick test_sha256_finalize_once;
          qc prop_sha256_avalanche;
          qc (prop_sha256_matches_reference chosen);
          Alcotest.test_case "70 000 bytes = reference" `Quick
            test_sha256_long_matches_reference;
          Alcotest.test_case "allocation budget" `Quick test_sha256_allocation_budget;
          Alcotest.test_case "two domains = sequential" `Quick test_sha256_two_domains;
          Alcotest.test_case "digest_into" `Quick test_sha256_digest_into;
          Alcotest.test_case "compress allocates nothing" `Quick
            (test_sha256_compress_allocates_nothing chosen);
          qc (prop_digest_into_matches_reference chosen);
          Alcotest.test_case "whole blocks in one call" `Quick
            test_sha256_whole_blocks_one_call;
          Alcotest.test_case "digest_slots" `Quick (test_sha256_digest_slots chosen);
          Alcotest.test_case "hardware kernel where sha_ni" `Quick
            test_sha256_hardware_where_listed;
        ] );
      (* The OCaml kernel.  Group names stay no wider than "signature":
         a wider name column cuts the long test names in the report. *)
      ( "portable",
        [
          Alcotest.test_case "FIPS vectors" `Quick (test_sha256_fips_vectors portable);
          Alcotest.test_case "million a" `Slow (test_sha256_million_a portable);
          qc (prop_sha256_matches_reference portable);
          Alcotest.test_case "compress allocates nothing" `Quick
            (test_sha256_compress_allocates_nothing portable);
          qc (prop_digest_into_matches_reference portable);
          Alcotest.test_case "digest_slots" `Quick (test_sha256_digest_slots portable);
        ] );
      ( "hmac",
        [
          Alcotest.test_case "RFC 4231 vectors" `Quick test_hmac_rfc4231_vectors;
          Alcotest.test_case "long key" `Quick test_hmac_long_key;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
        ] );
      ( "merkle",
        [
          Alcotest.test_case "proofs for all leaves" `Quick test_merkle_proofs_all_leaves;
          Alcotest.test_case "rejects wrong leaf" `Quick test_merkle_rejects_wrong_leaf;
          Alcotest.test_case "rejects wrong root" `Quick test_merkle_rejects_wrong_root;
          Alcotest.test_case "single leaf" `Quick test_merkle_single_leaf;
          Alcotest.test_case "order matters" `Quick test_merkle_root_depends_on_order;
          qc prop_merkle_proofs_verify;
        ] );
      ( "lamport",
        [
          Alcotest.test_case "sign/verify" `Quick test_lamport_sign_verify;
          Alcotest.test_case "one-time enforced" `Quick test_lamport_one_time_enforced;
          Alcotest.test_case "cross-key rejects" `Quick test_lamport_cross_key_rejects;
          Alcotest.test_case "every revealed preimage checked" `Quick
            test_every_revealed_preimage_checked;
        ] );
      ( "signature",
        [
          Alcotest.test_case "multi-sign to capacity" `Quick test_signature_multi_sign;
          Alcotest.test_case "encode/decode" `Quick test_signature_encode_decode;
          Alcotest.test_case "rewritten index rejected" `Quick
            test_signature_rewritten_index_rejected;
          Alcotest.test_case "byte changes rejected" `Quick
            test_signature_byte_changes_rejected;
          Alcotest.test_case "cross-signer rejects" `Quick
            test_signature_cross_signer_rejects;
          Alcotest.test_case "defer = generate" `Quick test_defer_matches_generate;
          Alcotest.test_case "defer checks height at call" `Quick
            test_defer_checks_height_at_call;
          qc prop_keys_match_reference;
          Alcotest.test_case "roots pinned" `Quick test_roots_pinned;
          Alcotest.test_case "key generation allocation budget" `Quick
            test_keygen_allocation_budget;
          Alcotest.test_case "verification allocation budget" `Quick
            test_verify_allocation_budget;
        ] );
    ]

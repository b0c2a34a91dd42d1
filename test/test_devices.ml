(* Tests for the device layer: codec round-trips, ring buffers in shared
   DRAM (including corruption handling), and the five device models. *)

open Guillotine_devices
module Dram = Guillotine_memory.Dram

(* ----------------------------- Codec ------------------------------ *)

let test_codec_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check (option string))
        (Printf.sprintf "roundtrip %S" s)
        (Some s)
        (Codec.string_of_words (Codec.words_of_string s)))
    [ ""; "a"; "12345678"; "123456789"; "Guillotine hypervisor \x00\xff bytes" ]

let test_codec_rejects_malformed () =
  Alcotest.(check (option string)) "empty" None (Codec.string_of_words [||]);
  Alcotest.(check (option string)) "negative length" None
    (Codec.string_of_words [| Int64.of_int (-1) |]);
  Alcotest.(check (option string)) "truncated" None
    (Codec.string_of_words [| 100L; 0L |])

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec roundtrip any string" ~count:300 QCheck.string
    (fun s -> Codec.string_of_words (Codec.words_of_string s) = Some s)

(* ---------------------------- Ringbuf ----------------------------- *)

let test_ring_push_pop () =
  let dram = Dram.create ~size:1024 in
  let r = Ringbuf.init dram ~base:0 ~capacity:4 ~slot_words:8 in
  Alcotest.(check int) "empty" 0 (Ringbuf.length r);
  Alcotest.(check bool) "push ok" true (Ringbuf.push r [| 1L; 2L; 3L |] = Ok ());
  Alcotest.(check int) "one queued" 1 (Ringbuf.length r);
  (match Ringbuf.pop r with
  | Some (Ok msg) -> Alcotest.(check (array int64)) "contents" [| 1L; 2L; 3L |] msg
  | _ -> Alcotest.fail "expected message");
  Alcotest.(check bool) "empty again" true (Ringbuf.pop r = None)

let test_ring_fifo_and_wrap () =
  let dram = Dram.create ~size:1024 in
  let r = Ringbuf.init dram ~base:0 ~capacity:3 ~slot_words:4 in
  for round = 0 to 5 do
    let v = Int64.of_int round in
    Alcotest.(check bool) "push" true (Ringbuf.push r [| v |] = Ok ());
    match Ringbuf.pop r with
    | Some (Ok [| v' |]) -> Alcotest.(check int64) "fifo" v v'
    | _ -> Alcotest.fail "pop"
  done

let test_ring_full_rejects () =
  let dram = Dram.create ~size:1024 in
  let r = Ringbuf.init dram ~base:0 ~capacity:2 ~slot_words:4 in
  ignore (Ringbuf.push r [| 1L |]);
  ignore (Ringbuf.push r [| 2L |]);
  Alcotest.(check bool) "full" true (Ringbuf.push r [| 3L |] = Error "ring full")

let test_ring_oversize_rejects () =
  let dram = Dram.create ~size:1024 in
  let r = Ringbuf.init dram ~base:0 ~capacity:2 ~slot_words:4 in
  Alcotest.(check bool) "oversize" true
    (Ringbuf.push r [| 1L; 2L; 3L; 4L |] = Error "message exceeds slot size")

let test_ring_attach_validates () =
  let dram = Dram.create ~size:1024 in
  let _ = Ringbuf.init dram ~base:0 ~capacity:4 ~slot_words:8 in
  (match Ringbuf.attach dram ~base:0 with
  | Ok r -> Alcotest.(check int) "capacity" 4 (Ringbuf.capacity r)
  | Error e -> Alcotest.fail e);
  (* Corrupt the magic. *)
  Dram.write dram 0 0L;
  (match Ringbuf.attach dram ~base:0 with
  | Error "bad ring magic" -> ()
  | _ -> Alcotest.fail "must reject bad magic")

let test_ring_attach_rejects_insane_geometry () =
  let dram = Dram.create ~size:1024 in
  let r = Ringbuf.init dram ~base:0 ~capacity:4 ~slot_words:8 in
  ignore r;
  Dram.write_int dram 1 (-5) (* capacity *);
  (match Ringbuf.attach dram ~base:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "must reject negative capacity");
  Dram.write_int dram 1 1_000_000;
  match Ringbuf.attach dram ~base:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "must reject giant capacity"

let test_ring_corrupt_slot_reported () =
  let dram = Dram.create ~size:1024 in
  let r = Ringbuf.init dram ~base:0 ~capacity:4 ~slot_words:8 in
  ignore (Ringbuf.push r [| 9L |]);
  (* The guest scribbles the slot's length word (slot 0 data begins at
     base + 5). *)
  Dram.write_int dram 5 999;
  (match Ringbuf.pop r with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "corrupt slot must be reported");
  (* The corrupt message is consumed, not wedged. *)
  Alcotest.(check int) "consumed" 0 (Ringbuf.length r)

let test_ring_scribbled_cursor_is_clamped () =
  let dram = Dram.create ~size:1024 in
  let r = Ringbuf.init dram ~base:0 ~capacity:4 ~slot_words:8 in
  Dram.write_int dram 4 (-100) (* tail *);
  Alcotest.(check int) "length clamped" 0 (Ringbuf.length r);
  Dram.write_int dram 4 1_000_000;
  Alcotest.(check int) "length clamped high" 4 (Ringbuf.length r)

(* Model-based test: a random push/pop interleaving against a reference
   queue.  The ring must agree on every result and every popped value. *)
let prop_ring_matches_reference_queue =
  QCheck.Test.make ~name:"ring agrees with a reference queue" ~count:200
    QCheck.(list (option (int_range 0 1000)))
    (fun ops ->
      let dram = Dram.create ~size:1024 in
      let ring = Ringbuf.init dram ~base:0 ~capacity:4 ~slot_words:4 in
      let reference = Queue.create () in
      List.for_all
        (fun op ->
          match op with
          | Some v ->
            (* push *)
            let accepted = Ringbuf.push ring [| Int64.of_int v |] = Ok () in
            let expect = Queue.length reference < 4 in
            if accepted then Queue.push v reference;
            accepted = expect
          | None -> (
            (* pop *)
            match (Ringbuf.pop ring, Queue.take_opt reference) with
            | None, None -> true
            | Some (Ok [| v |]), Some v' -> Int64.to_int v = v'
            | _ -> false))
        ops)

(* ------------------------------ NIC ------------------------------- *)

let test_nic_send_recv () =
  let nic = Nic.create ~name:"n0" () in
  let sent = ref [] in
  Nic.set_transmit nic (fun ~dest ~payload -> sent := (dest, payload) :: !sent);
  let d = Nic.device nic in
  let resp = d.Device.handle ~now:0 (Nic.encode_send ~dest:9 ~payload:"hello") in
  Alcotest.(check int) "send ok" 0 resp.Device.status;
  Alcotest.(check (list (pair int string))) "transmitted" [ (9, "hello") ] !sent;
  (* Inbound. *)
  Alcotest.(check bool) "deliver" true (Nic.deliver nic ~src:4 ~payload:"yo");
  let resp = d.Device.handle ~now:0 [| Int64.of_int Nic.op_recv |] in
  Alcotest.(check int) "recv ok" 0 resp.Device.status;
  Alcotest.(check int64) "has frame" 1L resp.Device.payload.(0);
  Alcotest.(check int64) "src" 4L resp.Device.payload.(1);
  Alcotest.(check (option string)) "payload" (Some "yo")
    (Codec.string_of_words (Array.sub resp.Device.payload 2 (Array.length resp.Device.payload - 2)))

let test_nic_recv_empty () =
  let nic = Nic.create ~name:"n1" () in
  let d = Nic.device nic in
  let resp = d.Device.handle ~now:0 [| Int64.of_int Nic.op_recv |] in
  Alcotest.(check int64) "no frame" 0L resp.Device.payload.(0)

let test_nic_queue_overflow_drops () =
  (* The shipped inbound queue holds 64 frames; the 65th is dropped. *)
  let nic = Nic.create ~name:"n2" () in
  for i = 1 to 64 do
    Alcotest.(check bool) (string_of_int i) true
      (Nic.deliver nic ~src:0 ~payload:"a")
  done;
  Alcotest.(check int) "64 queued" 64 (Nic.inbound_queued nic);
  Alcotest.(check bool) "65 dropped" false (Nic.deliver nic ~src:0 ~payload:"c")

let test_nic_bad_request () =
  let nic = Nic.create ~name:"n3" () in
  let d = Nic.device nic in
  Alcotest.(check int) "empty req" Device.status_bad_request
    (d.Device.handle ~now:0 [||]).Device.status;
  Alcotest.(check int) "unknown op" Device.status_bad_request
    (d.Device.handle ~now:0 [| 99L |]).Device.status

(* ----------------------------- Block ------------------------------ *)

let test_block_read_write () =
  let b = Block.create ~name:"disk" ~sectors:8 () in
  let d = Block.device b in
  let data = Array.init Block.sector_words (fun i -> Int64.of_int (i * 7)) in
  let req = Array.append [| Int64.of_int Block.op_write; 3L |] data in
  Alcotest.(check int) "write ok" 0 (d.Device.handle ~now:0 req).Device.status;
  let resp = d.Device.handle ~now:0 [| Int64.of_int Block.op_read; 3L |] in
  Alcotest.(check int) "read ok" 0 resp.Device.status;
  Alcotest.(check (array int64)) "data" data resp.Device.payload

let test_block_bounds () =
  let b = Block.create ~name:"disk" ~sectors:4 () in
  let d = Block.device b in
  let resp = d.Device.handle ~now:0 [| Int64.of_int Block.op_read; 99L |] in
  Alcotest.(check int) "oob" Device.status_bad_request resp.Device.status

(* ------------------------------ GPU ------------------------------- *)

let test_gpu_h2d_d2h () =
  let g = Gpu.create ~mem_words:256 ~name:"gpu" () in
  let d = Gpu.device g in
  let req = Array.append [| Int64.of_int Gpu.op_h2d; 10L |] [| 5L; 6L; 7L |] in
  Alcotest.(check int) "h2d" 0 (d.Device.handle ~now:0 req).Device.status;
  let resp = d.Device.handle ~now:0 [| Int64.of_int Gpu.op_d2h; 10L; 3L |] in
  Alcotest.(check (array int64)) "d2h" [| 5L; 6L; 7L |] resp.Device.payload

let test_gpu_gemm_correct () =
  let g = Gpu.create ~mem_words:1024 ~name:"gpu" () in
  let d = Gpu.device g in
  (* A = [[1;2];[3;4]] at 0, B = [[5;6];[7;8]] at 4, C at 8. *)
  ignore (d.Device.handle ~now:0 [| Int64.of_int Gpu.op_h2d; 0L; 1L; 2L; 3L; 4L |]);
  ignore (d.Device.handle ~now:0 [| Int64.of_int Gpu.op_h2d; 4L; 5L; 6L; 7L; 8L |]);
  let resp = d.Device.handle ~now:0 [| Int64.of_int Gpu.op_gemm; 0L; 4L; 8L; 2L |] in
  Alcotest.(check int) "gemm ok" 0 resp.Device.status;
  let c = (d.Device.handle ~now:0 [| Int64.of_int Gpu.op_d2h; 8L; 4L |]).Device.payload in
  Alcotest.(check (array int64)) "product" [| 19L; 22L; 43L; 50L |] c

let test_gpu_gemm_latency_scales () =
  let g = Gpu.create ~mem_words:(64 * 1024) ~name:"gpu" () in
  let d = Gpu.device g in
  let lat n =
    let c = Int64.of_int (2 * n * n) in
    (d.Device.handle ~now:0 [| Int64.of_int Gpu.op_gemm; 0L; Int64.of_int (n * n); c; Int64.of_int n |])
      .Device.latency
  in
  let l8 = lat 8 and l16 = lat 16 in
  Alcotest.(check bool) "n^3 growth" true (l16 > 6 * l8)

let test_gpu_clear () =
  let g = Gpu.create ~mem_words:64 ~name:"gpu" () in
  ignore (Gpu.poke g 5 42L);
  let d = Gpu.device g in
  ignore (d.Device.handle ~now:0 [| Int64.of_int Gpu.op_clear |]);
  Alcotest.(check (option int64)) "scrubbed" (Some 0L) (Gpu.peek g 5)

(* ---------------------------- Actuator ---------------------------- *)

let test_actuator_log_and_hazard_count () =
  let a = Actuator.create ~name:"arm" () in
  let d = Actuator.device a in
  ignore (d.Device.handle ~now:5 (Actuator.encode_apply ~code:10 ~magnitude:3));
  ignore (d.Device.handle ~now:9 (Actuator.encode_apply ~code:950 ~magnitude:1));
  Alcotest.(check int) "two actions" 2 (List.length (Actuator.log a));
  Alcotest.(check int) "one hazardous" 1 (Actuator.hazardous_applied a);
  (match Actuator.log a with
  | [ a1; a2 ] ->
    Alcotest.(check int) "time order" 5 a1.Actuator.at;
    Alcotest.(check int) "code" 950 a2.Actuator.code
  | _ -> Alcotest.fail "log shape")

(* ----------------------------- RAG DB ----------------------------- *)

let test_ragdb_query_ranking () =
  let db = Ragdb.create ~name:"kb" () in
  let _ = Ragdb.add_document db "the weather report for the storm" in
  let id_match = Ragdb.add_document db "bank ledger trade price report" in
  let _ = Ragdb.add_document db "protein gene sample assay" in
  let d = Ragdb.device db in
  let resp = d.Device.handle ~now:0 (Ragdb.encode_query ~k:1 "ledger price report") in
  Alcotest.(check int) "ok" 0 resp.Device.status;
  match Ragdb.decode_results resp.Device.payload with
  | Some [ (id, doc) ] ->
    Alcotest.(check int) "best doc" id_match id;
    Alcotest.(check string) "text" "bank ledger trade price report" doc
  | _ -> Alcotest.fail "expected exactly one result"

let test_ragdb_no_match () =
  let db = Ragdb.create ~name:"kb" () in
  let _ = Ragdb.add_document db "alpha beta" in
  let d = Ragdb.device db in
  let resp = d.Device.handle ~now:0 (Ragdb.encode_query ~k:3 "zzz qqq") in
  match Ragdb.decode_results resp.Device.payload with
  | Some [] -> ()
  | _ -> Alcotest.fail "expected no results"

let test_ragdb_score () =
  Alcotest.(check int) "overlap" 2 (Ragdb.score ~query:"a b c" ~doc:"b c d");
  Alcotest.(check int) "case" 1 (Ragdb.score ~query:"Hello" ~doc:"hello world")

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "devices"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_codec_rejects_malformed;
          qc prop_codec_roundtrip;
        ] );
      ( "ringbuf",
        [
          Alcotest.test_case "push/pop" `Quick test_ring_push_pop;
          Alcotest.test_case "fifo + wrap" `Quick test_ring_fifo_and_wrap;
          Alcotest.test_case "full rejects" `Quick test_ring_full_rejects;
          Alcotest.test_case "oversize rejects" `Quick test_ring_oversize_rejects;
          Alcotest.test_case "attach validates" `Quick test_ring_attach_validates;
          Alcotest.test_case "attach rejects bad geometry" `Quick
            test_ring_attach_rejects_insane_geometry;
          Alcotest.test_case "corrupt slot reported" `Quick
            test_ring_corrupt_slot_reported;
          Alcotest.test_case "scribbled cursor clamped" `Quick
            test_ring_scribbled_cursor_is_clamped;
          qc prop_ring_matches_reference_queue;
        ] );
      ( "nic",
        [
          Alcotest.test_case "send/recv" `Quick test_nic_send_recv;
          Alcotest.test_case "recv empty" `Quick test_nic_recv_empty;
          Alcotest.test_case "queue overflow drops" `Quick test_nic_queue_overflow_drops;
          Alcotest.test_case "bad request" `Quick test_nic_bad_request;
        ] );
      ( "block",
        [
          Alcotest.test_case "read/write" `Quick test_block_read_write;
          Alcotest.test_case "bounds" `Quick test_block_bounds;
        ] );
      ( "gpu",
        [
          Alcotest.test_case "h2d/d2h" `Quick test_gpu_h2d_d2h;
          Alcotest.test_case "gemm correct" `Quick test_gpu_gemm_correct;
          Alcotest.test_case "gemm latency scales" `Quick test_gpu_gemm_latency_scales;
          Alcotest.test_case "clear scrubs" `Quick test_gpu_clear;
        ] );
      ( "actuator",
        [ Alcotest.test_case "log + hazard count" `Quick test_actuator_log_and_hazard_count ] );
      ( "ragdb",
        [
          Alcotest.test_case "query ranking" `Quick test_ragdb_query_ranking;
          Alcotest.test_case "no match" `Quick test_ragdb_no_match;
          Alcotest.test_case "score" `Quick test_ragdb_score;
        ] );
    ]

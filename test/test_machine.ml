(* Tests for the machine topology: split memory domains, the shared IO
   region, the private inspection bus and its quiescence requirement,
   LAPIC throttling of doorbell floods, and program installation. *)

module Machine = Guillotine_machine.Machine
module Lapic = Guillotine_machine.Lapic
module Core = Guillotine_microarch.Core
module Dram = Guillotine_memory.Dram
module Mmu = Guillotine_memory.Mmu
module Asm = Guillotine_isa.Asm

let plain_header = {|
  jmp @start
  .zero 7
  .zero 8
|}

let test_topology () =
  let m = Machine.create () in
  Alcotest.(check int) "model cores" 2 (Array.length (Machine.model_cores m));
  Alcotest.(check int) "hyp cores" 1 (Array.length (Machine.hyp_cores m));
  Alcotest.(check bool) "model dram distinct from hyp dram" true
    (Machine.model_dram m != Machine.hyp_dram m);
  Alcotest.(check bool) "model core kind" true
    (Core.kind (Machine.model_core m 0) = Core.Model_core);
  Alcotest.(check bool) "hyp core kind" true
    (Core.kind (Machine.hyp_core m 0) = Core.Hypervisor_core)

let test_install_and_run_program () =
  let m = Machine.create () in
  let data_base = 4 * 256 in
  let p =
    Asm.assemble_exn
      (plain_header
      ^ Printf.sprintf
          {|
start:
  movi r1, 11
  movi r2, 31
  mul  r3, r1, r2
  movi r4, %d
  store r4, r3, 0
  halt
|}
          data_base)
  in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
  ignore (Machine.run_models m ~quantum:1000);
  Alcotest.(check int64) "computed" 341L (Dram.read (Machine.model_dram m) data_base)

let test_io_region_shared () =
  (* The model writes through its mapped IO page; the hypervisor side
     sees the same word in io_dram. *)
  let m = Machine.create () in
  let io_vpage = 100 in
  let io_addr = io_vpage * 256 in
  let p =
    Asm.assemble_exn
      (plain_header
      ^ Printf.sprintf {|
start:
  movi r1, %d
  movi r2, 1234
  store r1, r2, 0
  halt
|} io_addr)
  in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:0 p;
  Machine.map_io_page m ~core:0 ~vpage:io_vpage ~io_page:0 Mmu.perm_rw;
  ignore (Machine.run_models m ~quantum:1000);
  Alcotest.(check int64) "hypervisor sees io word" 1234L
    (Dram.read (Machine.io_dram m) 0)

let test_inspection_requires_quiescence () =
  let m = Machine.create () in
  let p = Asm.assemble_exn (plain_header ^ "start:\n  jmp @start\n") in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:0 p;
  (* Core 0 is running: the private bus must refuse. *)
  Alcotest.(check bool) "not quiescent" false (Machine.all_models_quiescent m);
  (match Machine.inspect_read m 0 with
  | exception Machine.Inspection_denied _ -> ()
  | _ -> Alcotest.fail "inspection of a running machine must be denied");
  Machine.pause_all_models m;
  Alcotest.(check bool) "quiescent" true (Machine.all_models_quiescent m);
  let w = Machine.inspect_read m 0 in
  Alcotest.(check int64) "reads program word" p.Asm.words.(0) w;
  Machine.inspect_write m 5000 77L;
  Alcotest.(check int64) "write lands" 77L (Dram.read (Machine.model_dram m) 5000)

let test_measurement_detects_tamper () =
  let m = Machine.create () in
  let p = Asm.assemble_exn (plain_header ^ "start:\n  halt\n") in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:0 p;
  Machine.pause_all_models m;
  let h0 = Machine.measure_model_memory m ~at:0 ~len:1024 in
  let h0' = Machine.measure_model_memory m ~at:0 ~len:1024 in
  Alcotest.(check bool) "measurement stable" true (h0 = h0');
  Machine.inspect_write m 17 999L;
  let h1 = Machine.measure_model_memory m ~at:0 ~len:1024 in
  Alcotest.(check bool) "tamper changes measurement" true (h0 <> h1)

let test_lapic_throttles_flood () =
  let lapic = Lapic.create ~rate_limit:8 in
  let accepted = ref 0 in
  for i = 1 to 100 do
    if Lapic.raise_line lapic ~now:i ~line:0 ~src_core:0 then incr accepted
  done;
  Alcotest.(check int) "rate-limited" 8 !accepted;
  let acc, dropped = Lapic.stats lapic in
  Alcotest.(check int) "accepted stat" 8 acc;
  Alcotest.(check int) "dropped stat" 92 dropped

let test_lapic_window_rolls () =
  let lapic = Lapic.create ~rate_limit:2 in
  Alcotest.(check bool) "1 ok" true (Lapic.raise_line lapic ~now:0 ~line:0 ~src_core:0);
  Alcotest.(check bool) "2 ok" true (Lapic.raise_line lapic ~now:1 ~line:0 ~src_core:0);
  Alcotest.(check bool) "3 throttled" false
    (Lapic.raise_line lapic ~now:2 ~line:0 ~src_core:0);
  (* New window: capacity replenishes. *)
  Alcotest.(check bool) "next window ok" true
    (Lapic.raise_line lapic ~now:(Lapic.window + 5) ~line:0 ~src_core:0)

let test_lapic_unthrottled_when_disabled () =
  let lapic = Lapic.create ~rate_limit:0 in
  let accepted = ref 0 in
  for i = 1 to 256 do
    if Lapic.raise_line lapic ~now:i ~line:0 ~src_core:0 then incr accepted
  done;
  Alcotest.(check int) "all accepted" 256 !accepted;
  (* Only the 256-deep pending queue bounds an unthrottled controller. *)
  Alcotest.(check bool) "queue full" false
    (Lapic.raise_line lapic ~now:257 ~line:0 ~src_core:0)

let test_doorbell_reaches_machine_lapic () =
  let m = Machine.create () in
  let p =
    Asm.assemble_exn (plain_header ^ "start:\n  irq 3\n  irq 4\n  halt\n")
  in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:0 p;
  ignore (Machine.run_models m ~quantum:1000);
  Alcotest.(check int) "two pending" 2 (Lapic.pending (Machine.lapic m));
  (match Lapic.pop (Machine.lapic m) with
  | Some r ->
    Alcotest.(check int) "line" 3 r.Lapic.line;
    Alcotest.(check int) "src core" 0 r.Lapic.src_core
  | None -> Alcotest.fail "expected request");
  ignore (Lapic.pop (Machine.lapic m))

let test_machine_clock_advances () =
  let m = Machine.create () in
  let p = Asm.assemble_exn (plain_header ^ "start:\n  nop\n  nop\n  halt\n") in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:0 p;
  let t0 = Machine.now m in
  ignore (Machine.run_models m ~quantum:100);
  let t1 = Machine.now m in
  Alcotest.(check bool) "model cycles counted" true (t1 > t0);
  Machine.charge_hypervisor m 500;
  Alcotest.(check int) "hv cycles counted" (t1 + 500) (Machine.now m);
  Alcotest.(check int) "hv accessor" 500 (Machine.hypervisor_cycles m)

let test_power_down_all () =
  let m = Machine.create () in
  let p = Asm.assemble_exn (plain_header ^ "start:\n  jmp @start\n") in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:0 p;
  Machine.power_down_all_models m;
  Array.iter
    (fun c -> Alcotest.(check bool) "off" true (Core.status c = Core.Powered_off))
    (Machine.model_cores m);
  Alcotest.(check int) "nothing runs" 0 (Machine.run_models m ~quantum:100)

let test_model_core_cannot_reach_hypervisor_dram () =
  (* Structural isolation: the model core's hierarchy routes only model
     DRAM and the IO region.  Any physical address it can form either
     lands in model DRAM, the IO window, or faults — writing the whole
     reachable window never perturbs hypervisor DRAM. *)
  let m = Machine.create () in
  let hyp = Machine.hyp_dram m in
  let hyp_before = Dram.snapshot hyp ~at:0 ~len:(Dram.size hyp) in
  let p =
    Asm.assemble_exn
      (plain_header
      ^ Printf.sprintf
          {|
start:
  movi r1, 1024      ; first data word (code pages are RX)
  movi r2, %d        ; one past the last mapped model word
  movi r3, 51
loop:
  store r1, r3, 0
  movi r5, 1
  add  r1, r1, r5
  blt  r1, r2, @loop
  halt
|}
          (8 * 1024))
  in
  (* Map everything the model could name: all model pages RW except the
     code page, which stays RX. *)
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:28 p;
  (* Skip the code pages in the loop by starting past them. *)
  ignore (Machine.run_models m ~quantum:2_000_000);
  let hyp_after = Dram.snapshot hyp ~at:0 ~len:(Dram.size hyp) in
  Alcotest.(check bool) "hypervisor DRAM untouched" true (hyp_before = hyp_after)

let test_two_tenants_page_disjoint () =
  (* Two models on two cores: each MMU maps only its own weight pages;
     tenant B's attempt to read tenant A's weights faults (the Nevo et
     al. weight-confidentiality concern, enforced by page tables). *)
  let m = Machine.create () in
  (* Tenant A owns frames 40..41, tenant B frames 42..43. *)
  let mmu_a = Core.mmu (Machine.model_core m 0) in
  let mmu_b = Core.mmu (Machine.model_core m 1) in
  let ok = function Ok () -> () | Error _ -> Alcotest.fail "map" in
  ok (Mmu.map mmu_a ~vpage:40 ~frame:40 Mmu.perm_r);
  ok (Mmu.map mmu_b ~vpage:42 ~frame:42 Mmu.perm_r);
  Dram.write (Machine.model_dram m) (40 * 256) 111L;
  Dram.write (Machine.model_dram m) (42 * 256) 222L;
  (* B reads its own page fine; A's page is simply unmapped for B. *)
  (match Mmu.translate mmu_b ~addr:(42 * 256) ~access:`R with
  | Ok p -> Alcotest.(check int64) "own weights" 222L (Dram.read (Machine.model_dram m) p)
  | Error _ -> Alcotest.fail "own page must map");
  match Mmu.translate mmu_b ~addr:(40 * 256) ~access:`R with
  | Error (Mmu.Unmapped _) -> ()
  | _ -> Alcotest.fail "tenant A's weights must be unreachable from B"

let test_memory_probe_guest_maps_own_world_only () =
  (* The reconnaissance guest walks memory a page at a time and counts
     successful loads; it stops exactly at the edge of its mapping. *)
  let m = Machine.create () in
  let p =
    Guillotine_isa.Asm.assemble_exn
      (Guillotine_model.Guest_programs.memory_probe ~start:1024 ~stride:256)
  in
  (* 4 code pages + 8 data pages mapped: data runs 1024..4095. *)
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:8 p;
  ignore (Machine.run_models m ~quantum:100_000);
  let count =
    Dram.read (Machine.model_dram m) Guillotine_model.Guest_programs.result_base
  in
  (* 8 mapped data pages probed at one load per page. *)
  Alcotest.(check int64) "stops at the mapping edge" 8L count

(* ------------------------------- DMA -------------------------------- *)

module Iommu = Guillotine_memory.Iommu

let test_dma_write_through_window () =
  let m = Machine.create () in
  let io = Iommu.create () in
  (* Window: device page 0 -> model frame 8. *)
  (match Iommu.grant io ~dma_page:0 ~frame:8 ~writable:true with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "grant");
  (match Machine.dma_write m ~iommu:io ~dma_addr:4 [| 11L; 22L; 33L |] with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int64) "landed at frame 8" 22L
    (Dram.read (Machine.model_dram m) ((8 * 256) + 5));
  (* Read-back through the same window. *)
  match Machine.dma_read m ~iommu:io ~dma_addr:4 ~len:3 with
  | Ok words -> Alcotest.(check (array int64)) "readback" [| 11L; 22L; 33L |] words
  | Error e -> Alcotest.fail e

let test_dma_outside_window_blocked_atomically () =
  let m = Machine.create () in
  let io = Iommu.create () in
  ignore (Iommu.grant io ~dma_page:0 ~frame:8 ~writable:true);
  let before = Dram.snapshot (Machine.model_dram m) ~at:(8 * 256) ~len:256 in
  (* A burst that starts inside the window but runs off its end: nothing
     may be written, not even the in-window prefix. *)
  (match Machine.dma_write m ~iommu:io ~dma_addr:254 [| 1L; 2L; 3L; 4L |] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "straddling burst must be blocked");
  Alcotest.(check (array int64)) "nothing written" before
    (Dram.snapshot (Machine.model_dram m) ~at:(8 * 256) ~len:256);
  Alcotest.(check bool) "iommu counted it" true (Iommu.blocked_dmas io > 0)

let test_dma_works_while_cores_run () =
  (* Unlike the private inspection bus, DMA is legal mid-execution. *)
  let m = Machine.create () in
  let p = Asm.assemble_exn (plain_header ^ "start:\n  jmp @start\n") in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:0 p;
  Alcotest.(check bool) "core running" false (Machine.all_models_quiescent m);
  let io = Iommu.create () in
  ignore (Iommu.grant io ~dma_page:0 ~frame:8 ~writable:true);
  match Machine.dma_write m ~iommu:io ~dma_addr:0 [| 7L |] with
  | Ok () -> Alcotest.(check int64) "landed" 7L (Dram.read (Machine.model_dram m) (8 * 256))
  | Error e -> Alcotest.fail e

(* ---------------------------- Snapshot ----------------------------- *)

module Snapshot = Guillotine_machine.Snapshot

let counting_guest = plain_header ^ {|
start:
  movi r5, 1
loop:
  add r1, r1, r5
  jmp @loop
|}

let test_snapshot_restore_replays_exactly () =
  let m = Machine.create () in
  let p = Asm.assemble_exn counting_guest in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
  ignore (Machine.run_models m ~quantum:100);
  Machine.pause_all_models m;
  let snap = Snapshot.capture m in
  let r1_at_snap = Core.read_reg (Machine.model_core m 0) 1 in
  (* Diverge: run further, then scribble memory and registers. *)
  Machine.resume_all_models m;
  ignore (Machine.run_models m ~quantum:500);
  Machine.pause_all_models m;
  Machine.inspect_write m 2000 999L;
  Core.write_reg (Machine.model_core m 0) 1 123456L;
  (* Roll back. *)
  Snapshot.restore m snap;
  Alcotest.(check int64) "register rolled back" r1_at_snap
    (Core.read_reg (Machine.model_core m 0) 1);
  Alcotest.(check int64) "memory rolled back" 0L
    (Dram.read (Machine.model_dram m) 2000);
  (* Deterministic replay: two restores + equal runs end identically. *)
  Machine.resume_all_models m;
  ignore (Machine.run_models m ~quantum:300);
  Machine.pause_all_models m;
  let r1_a = Core.read_reg (Machine.model_core m 0) 1 in
  Snapshot.restore m snap;
  Machine.resume_all_models m;
  ignore (Machine.run_models m ~quantum:300);
  Machine.pause_all_models m;
  let r1_b = Core.read_reg (Machine.model_core m 0) 1 in
  Alcotest.(check int64) "replay deterministic" r1_a r1_b

let test_snapshot_requires_quiescence () =
  let m = Machine.create () in
  let p = Asm.assemble_exn counting_guest in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
  Alcotest.(check bool) "running" true (not (Machine.all_models_quiescent m));
  (match Snapshot.capture m with
  | exception Machine.Inspection_denied _ -> ()
  | _ -> Alcotest.fail "capture of a running machine must be denied")

let test_snapshot_digest_identity () =
  let m = Machine.create () in
  let p = Asm.assemble_exn counting_guest in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
  ignore (Machine.run_models m ~quantum:50);
  Machine.pause_all_models m;
  let s1 = Snapshot.capture m in
  let s2 = Snapshot.capture m in
  Alcotest.(check string) "same state, same digest" (Snapshot.digest_hex s1)
    (Snapshot.digest_hex s2);
  Machine.resume_all_models m;
  ignore (Machine.run_models m ~quantum:50);
  Machine.pause_all_models m;
  let s3 = Snapshot.capture m in
  Alcotest.(check bool) "different state, different digest" true
    (Snapshot.digest_hex s1 <> Snapshot.digest_hex s3)

(* Reference digest, for tests only: the frozen serialisation written
   with [Printf], which [Snapshot]'s nibble-table writer must match byte
   for byte.  A zero word is formatted once: most of the 256 KiW the
   cases digest are zero. *)
let reference_digest m =
  let dram =
    Machine.inspect_region m ~at:0 ~len:(Dram.size (Machine.model_dram m))
  in
  let contexts = Array.map Core.save_context (Machine.model_cores m) in
  let buf = Buffer.create (8 * Array.length dram) in
  let zero = Printf.sprintf "%Lx;" 0L in
  Array.iter
    (fun w ->
      Buffer.add_string buf (if w = 0L then zero else Printf.sprintf "%Lx;" w))
    dram;
  Array.iter
    (fun (c : Core.context) ->
      Array.iter (fun r -> Buffer.add_string buf (Printf.sprintf "%Lx," r)) c.Core.ctx_regs;
      Buffer.add_string buf
        (Printf.sprintf "|%d|%d|%b" c.Core.ctx_pc c.Core.ctx_epc c.Core.ctx_in_handler))
    contexts;
  Guillotine_crypto.Sha256.digest_hex (Buffer.contents buf)

let gen_word =
  QCheck.Gen.(
    frequency
      [
        (2, oneofl [ 0L; -1L; Int64.min_int; Int64.max_int; 0xffff_ffffL; 0x1_0000_0000L ]);
        (3, ui64);
        (2, map Int64.of_int (int_bound 0xffff_ffff));
        (1, map (fun n -> Int64.shift_left 1L n) (int_bound 63));
        (1, map (fun n -> Int64.pred (Int64.shift_left 1L n)) (int_bound 63));
      ])

let gen_int =
  QCheck.Gen.(frequency [ (3, int); (1, oneofl [ 0; -1; min_int; max_int ]); (2, small_int) ])

let prop_snapshot_digest_matches_printf =
  let machine = lazy (Machine.create ()) in
  let gen_context =
    QCheck.Gen.(
      map3
        (fun regs (pc, epc) in_handler ->
          { Core.ctx_regs = regs; ctx_pc = pc; ctx_epc = epc; ctx_in_handler = in_handler })
        (array_size (return Guillotine_isa.Isa.num_regs) gen_word)
        (pair gen_int gen_int) bool)
  in
  let gen_addr = QCheck.Gen.int_bound (Dram.size (Machine.model_dram (Lazy.force machine)) - 1) in
  let gen =
    QCheck.Gen.(
      pair (list_size (int_bound 64) (pair gen_addr gen_word)) (pair gen_context gen_context))
  in
  QCheck.Test.make ~name:"digest = Printf reference" ~count:60 (QCheck.make gen)
    (fun (words, (c0, c1)) ->
      let m = Lazy.force machine in
      Machine.pause_all_models m;
      let dram = Machine.model_dram m in
      Dram.fill dram ~at:0 ~len:(Dram.size dram) 0L;
      List.iter (fun (addr, w) -> Dram.write dram addr w) words;
      Core.load_context (Machine.model_core m 0) c0;
      Core.load_context (Machine.model_core m 1) c1;
      Snapshot.digest_hex (Snapshot.capture m) = reference_digest m)

let test_machine_create_allocation_budget () =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Machine.create ()));
  let words = Gc.minor_words () -. before in
  if words > 20_000. then
    Alcotest.failf "Machine.create allocates %.0f minor words (budget 20 000)" words

(* Caches and DRAM are made on first use, so a machine's set-up leaves
   the major heap alone: the eager arrays took ~780 000 words. *)
let test_machine_create_major_budget () =
  let _, promoted0, major0 = Gc.counters () in
  ignore (Sys.opaque_identity (Machine.create ()));
  let _, promoted1, major1 = Gc.counters () in
  let words = major1 -. major0 -. (promoted1 -. promoted0) in
  if words > 64_000. then
    Alcotest.failf "Machine.create allocates %.0f major words (budget 64 000)" words

(* A never-written model DRAM digests as a zero-filled one, and
   capturing it does not make its words. *)
let test_snapshot_never_written_dram () =
  let fresh = Machine.create () in
  let zeroed = Machine.create () in
  let dram = Machine.model_dram zeroed in
  Dram.write dram 100 7L;
  Dram.write dram 100 0L;
  Alcotest.(check string) "digest"
    (Snapshot.digest_hex (Snapshot.capture zeroed))
    (Snapshot.digest_hex (Snapshot.capture fresh));
  Alcotest.(check int) "fresh DRAM still unmade" 0
    (Array.length (Machine.model_dram fresh).Dram.data)

let test_snapshot_revives_powered_off_core () =
  let m = Machine.create () in
  let p = Asm.assemble_exn counting_guest in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
  ignore (Machine.run_models m ~quantum:100);
  Machine.pause_all_models m;
  let snap = Snapshot.capture m in
  let r1 = Core.read_reg (Machine.model_core m 0) 1 in
  Machine.power_down_all_models m;
  Snapshot.restore m snap;
  Alcotest.(check int64) "context back after power cycle" r1
    (Core.read_reg (Machine.model_core m 0) 1)

let () =
  Alcotest.run "machine"
    [
      ( "topology",
        [
          Alcotest.test_case "cores and domains" `Quick test_topology;
          Alcotest.test_case "create allocation budget" `Quick
            test_machine_create_allocation_budget;
          Alcotest.test_case "create major-heap budget" `Quick
            test_machine_create_major_budget;
          Alcotest.test_case "install and run" `Quick test_install_and_run_program;
          Alcotest.test_case "io region shared" `Quick test_io_region_shared;
          Alcotest.test_case "model cannot reach hyp DRAM" `Slow
            test_model_core_cannot_reach_hypervisor_dram;
          Alcotest.test_case "two tenants page-disjoint" `Quick
            test_two_tenants_page_disjoint;
          Alcotest.test_case "memory-probe guest bounded" `Quick
            test_memory_probe_guest_maps_own_world_only;
        ] );
      ( "inspection",
        [
          Alcotest.test_case "requires quiescence" `Quick
            test_inspection_requires_quiescence;
          Alcotest.test_case "measurement detects tamper" `Quick
            test_measurement_detects_tamper;
        ] );
      ( "lapic",
        [
          Alcotest.test_case "throttles flood" `Quick test_lapic_throttles_flood;
          Alcotest.test_case "window rolls" `Quick test_lapic_window_rolls;
          Alcotest.test_case "disabled = unthrottled" `Quick
            test_lapic_unthrottled_when_disabled;
          Alcotest.test_case "doorbell reaches lapic" `Quick
            test_doorbell_reaches_machine_lapic;
        ] );
      ( "dma",
        [
          Alcotest.test_case "write through window" `Quick test_dma_write_through_window;
          Alcotest.test_case "outside window blocked atomically" `Quick
            test_dma_outside_window_blocked_atomically;
          Alcotest.test_case "works while cores run" `Quick test_dma_works_while_cores_run;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "restore replays exactly" `Quick
            test_snapshot_restore_replays_exactly;
          Alcotest.test_case "requires quiescence" `Quick
            test_snapshot_requires_quiescence;
          Alcotest.test_case "digest identity" `Quick test_snapshot_digest_identity;
          Alcotest.test_case "never-written DRAM" `Quick test_snapshot_never_written_dram;
          QCheck_alcotest.to_alcotest prop_snapshot_digest_matches_printf;
          Alcotest.test_case "revives powered-off core" `Quick
            test_snapshot_revives_powered_off_core;
        ] );
      ( "clock-power",
        [
          Alcotest.test_case "clock advances" `Quick test_machine_clock_advances;
          Alcotest.test_case "power down all" `Quick test_power_down_all;
        ] );
    ]

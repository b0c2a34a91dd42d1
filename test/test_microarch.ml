(* Tests for the core execution engine: program execution, the trap ABI,
   watchpoints, the hypervisor control plane, timing behaviour, and the
   end-to-end W^X code-injection defence. *)

open Guillotine_memory
module Core = Guillotine_microarch.Core
module Bpred = Guillotine_microarch.Bpred
module Asm = Guillotine_isa.Asm
module Isa = Guillotine_isa.Isa
module Encoding = Guillotine_isa.Encoding

(* A fresh core over 64 KiW of DRAM.  Pages 0..3 mapped RX for code +
   vector table, pages 4..7 mapped RW for data. *)
let make_core () =
  let dram = Dram.create ~size:(64 * 1024) in
  let hierarchy = Hierarchy.create ~dram () in
  let core = Core.create ~id:0 ~kind:Core.Model_core ~hierarchy () in
  let mmu = Core.mmu core in
  for p = 0 to 3 do
    match Mmu.map mmu ~vpage:p ~frame:p Mmu.perm_rx with
    | Ok () -> ()
    | Error _ -> assert false
  done;
  for p = 4 to 7 do
    match Mmu.map mmu ~vpage:p ~frame:p Mmu.perm_rw with
    | Ok () -> ()
    | Error _ -> assert false
  done;
  (core, dram)

let load (core, dram) src =
  let p = Asm.assemble_exn src in
  Dram.load_program dram p;
  (core, dram, p)

(* Standard program header: entry jump at 0, vector table at 8..15. *)
let header ~div_handler ~pf_handler ~irq_handler ~bad_handler =
  Printf.sprintf
    {|
  jmp @start
  .zero 7
  .word %s   ; vec 0: div-by-zero
  .word %s   ; vec 1: page fault
  .word 0    ; vec 2: timer
  .word %s   ; vec 3: irq reply
  .word %s   ; vec 4: bad instruction
  .zero 3
|}
    div_handler pf_handler irq_handler bad_handler

let plain_header = header ~div_handler:"0" ~pf_handler:"0" ~irq_handler:"0" ~bad_handler:"0"

let data_base = 4 * 256 (* first RW data word *)

let halted_with core reason =
  match Core.status core with
  | Core.Halted r -> r = reason
  | _ -> false

let test_arithmetic_program () =
  let core, dram, _ =
    load (make_core ())
      (plain_header
      ^ Printf.sprintf
          {|
start:
  movi r1, 6
  movi r2, 7
  mul  r3, r1, r2
  movi r4, %d
  store r4, r3, 0
  halt
|}
          data_base)
  in
  ignore (Core.run core ~fuel:100);
  Alcotest.(check bool) "halted" true (halted_with core Core.Halt_instruction);
  Alcotest.(check int64) "6*7 stored" 42L (Dram.read dram data_base)

let test_loop_and_branches () =
  (* Sum 1..10 into r3, store. *)
  let core, dram, _ =
    load (make_core ())
      (plain_header
      ^ Printf.sprintf
          {|
start:
  movi r1, 1        ; i
  movi r2, 10       ; n
  movi r3, 0        ; acc
  movi r5, 1        ; increment
loop:
  add  r3, r3, r1
  add  r1, r1, r5
  blt  r1, r2, @loop
  beq  r1, r2, @loop
  movi r4, %d
  store r4, r3, 0
  halt
|}
          data_base)
  in
  ignore (Core.run core ~fuel:1000);
  Alcotest.(check bool) "halted" true (halted_with core Core.Halt_instruction);
  Alcotest.(check int64) "sum 1..10" 55L (Dram.read dram data_base)

let test_div_by_zero_unhandled_halts () =
  let core, _, _ =
    load (make_core ())
      (plain_header ^ {|
start:
  movi r1, 5
  movi r2, 0
  div  r3, r1, r2
  halt
|})
  in
  ignore (Core.run core ~fuel:100);
  Alcotest.(check bool) "halted on fault" true
    (halted_with core (Core.Unhandled_exception Isa.Div_by_zero))

let test_div_by_zero_handled_resumes () =
  (* The handler repairs the divisor and irets; the faulting div
     re-executes and succeeds. *)
  let src =
    header ~div_handler:"@fixup" ~pf_handler:"0" ~irq_handler:"0" ~bad_handler:"0"
    ^ Printf.sprintf
        {|
start:
  movi r1, 5
  movi r2, 0
  div  r3, r1, r2   ; traps; handler sets r2 := 1 and retries
  movi r4, %d
  store r4, r3, 0
  halt
fixup:
  movi r2, 1
  iret
|}
        data_base
  in
  let core, dram, _ = load (make_core ()) src in
  ignore (Core.run core ~fuel:100);
  Alcotest.(check bool) "halted normally" true (halted_with core Core.Halt_instruction);
  Alcotest.(check int64) "retried div" 5L (Dram.read dram data_base)

let test_trap_abi_registers () =
  (* The handler stores r13 (cause) and r12 (bad address) to data memory. *)
  let src =
    header ~div_handler:"0" ~pf_handler:"@handler" ~irq_handler:"0" ~bad_handler:"0"
    ^ Printf.sprintf
        {|
start:
  movi r1, 999999   ; unmapped address
  load r2, r1, 0    ; page fault
  halt
handler:
  movi r4, %d
  store r4, r13, 0
  movi r4, %d
  store r4, r12, 0
  halt
|}
        data_base (data_base + 1)
  in
  let core, dram, _ = load (make_core ()) src in
  ignore (Core.run core ~fuel:100);
  Alcotest.(check int64) "cause = 1 (page fault)" 1L (Dram.read dram data_base);
  Alcotest.(check int64) "bad address" 999999L (Dram.read dram (data_base + 1))

let test_store_to_code_page_faults () =
  let core, _, _ =
    load (make_core ())
      (plain_header ^ {|
start:
  movi r1, 20
  movi r2, 77
  store r1, r2, 0   ; address 20 is in an RX page
  halt
|})
  in
  ignore (Core.run core ~fuel:100);
  match Core.status core with
  | Core.Halted (Core.Unhandled_exception (Isa.Page_fault 20)) -> ()
  | s -> Alcotest.failf "expected page fault at 20, got %a" Core.pp_status s

let test_fetch_from_data_page_faults () =
  let core, _, _ =
    load (make_core ())
      (plain_header
      ^ Printf.sprintf {|
start:
  jmp %d   ; data page is not executable
|} data_base)
  in
  ignore (Core.run core ~fuel:100);
  match Core.status core with
  | Core.Halted (Core.Unhandled_exception (Isa.Page_fault a)) ->
    Alcotest.(check int) "faulting pc" data_base a
  | s -> Alcotest.failf "expected fetch fault, got %a" Core.pp_status s

let test_code_injection_blocked_end_to_end () =
  (* The model writes a valid encoded HALT into a writable data page and
     jumps to it: classic runtime code injection.  The fetch must fault
     because the page is not executable — the paper's W^X guarantee. *)
  let halt_word = Int64.to_int (Encoding.encode Isa.Halt) in
  ignore halt_word;
  let core, dram, _ =
    load (make_core ())
      (plain_header
      ^ Printf.sprintf
          {|
start:
  ; build the encoded HALT (opcode 1 << 56) in r1
  movi r1, 1
  movi r2, 56
  shl  r1, r1, r2
  movi r3, %d
  store r3, r1, 0   ; write instruction into data page
  jmp  %d           ; try to execute it
|}
          data_base data_base)
  in
  ignore (Core.run core ~fuel:100);
  (* The injected word really is a decodable HALT... *)
  Alcotest.(check bool) "payload written" true
    (Encoding.decode (Dram.read dram data_base) = Some Isa.Halt);
  (* ...but executing it is impossible. *)
  match Core.status core with
  | Core.Halted (Core.Unhandled_exception (Isa.Page_fault a)) ->
    Alcotest.(check int) "fetch blocked" data_base a
  | s -> Alcotest.failf "expected blocked fetch, got %a" Core.pp_status s

let test_bad_instruction_halts () =
  let core, dram, _ = load (make_core ()) (plain_header ^ "start:\n  nop\n  halt\n") in
  (* Overwrite the nop with an undecodable word. *)
  let start = 16 in
  Dram.write dram start 0xFF00_0000_0000_0000L;
  ignore (Core.run core ~fuel:10);
  Alcotest.(check bool) "bad instruction" true
    (halted_with core (Core.Unhandled_exception Isa.Bad_instruction))

let test_data_watchpoint_halts_and_resumes () =
  let core, dram, _ =
    load (make_core ())
      (plain_header
      ^ Printf.sprintf
          {|
start:
  movi r1, %d
  movi r2, 1
  store r1, r2, 0
  movi r2, 2
  store r1, r2, 1
  halt
|}
          data_base)
  in
  Core.set_watchpoint core (`Data (data_base + 1));
  ignore (Core.run core ~fuel:100);
  (match Core.status core with
  | Core.Halted (Core.Watchpoint a) -> Alcotest.(check int) "watch addr" (data_base + 1) a
  | s -> Alcotest.failf "expected watchpoint, got %a" Core.pp_status s);
  (* First store committed, watched store did not. *)
  Alcotest.(check int64) "first store done" 1L (Dram.read dram data_base);
  Alcotest.(check int64) "watched store held" 0L (Dram.read dram (data_base + 1));
  (* The hypervisor may inspect, then resume over the access. *)
  Core.resume core;
  ignore (Core.run core ~fuel:100);
  Alcotest.(check bool) "completed" true (halted_with core Core.Halt_instruction);
  Alcotest.(check int64) "watched store done" 2L (Dram.read dram (data_base + 1))

let test_code_watchpoint () =
  let core, _, p =
    load (make_core ()) (plain_header ^ "start:\n  nop\n  nop\ntarget:\n  nop\n  halt\n")
  in
  let target = Asm.symbol p "target" in
  Core.set_watchpoint core (`Code target);
  ignore (Core.run core ~fuel:100);
  (match Core.status core with
  | Core.Halted (Core.Watchpoint a) -> Alcotest.(check int) "code watch" target a
  | s -> Alcotest.failf "expected code watchpoint, got %a" Core.pp_status s);
  Alcotest.(check int) "pc at target" target (Core.get_pc core);
  Core.resume core;
  ignore (Core.run core ~fuel:100);
  Alcotest.(check bool) "completed" true (halted_with core Core.Halt_instruction)

let test_pause_inspect_modify_resume () =
  let core, _, _ =
    load (make_core ())
      (plain_header ^ {|
start:
  movi r1, 10
spin:
  add  r2, r2, r1
  jmp @spin
|})
  in
  ignore (Core.run core ~fuel:50);
  Core.pause core;
  Alcotest.(check bool) "paused" true (halted_with core Core.Forced_pause);
  Alcotest.(check int64) "r1 visible" 10L (Core.read_reg core 1);
  Core.write_reg core 1 1000L;
  Core.resume core;
  ignore (Core.run core ~fuel:7);
  Core.pause core;
  Alcotest.(check bool) "r2 grew by new r1" true (Core.read_reg core 2 >= 1000L)

let test_reg_access_requires_halt () =
  let core, _, _ = load (make_core ()) (plain_header ^ "start:\n  jmp @start\n") in
  Alcotest.(check bool) "running" true (Core.status core = Core.Running);
  Alcotest.check_raises "read while running"
    (Invalid_argument "Core.read_reg: core 0 is running") (fun () ->
      ignore (Core.read_reg core 1))

(* A register index is checked on the control plane, not wrapped: an
   index whose byte offset [r lsl 3] wraps to r0's ([min_int],
   [1 lsl 60]) is as invalid as -1 or 16. *)
let test_reg_index_out_of_range () =
  let core, _, _ = load (make_core ()) (plain_header ^ "start:\n  halt\n") in
  ignore (Core.run core ~fuel:10);
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  List.iter
    (fun r ->
      Alcotest.(check bool) (Printf.sprintf "read_reg %d" r) true
        (raises (fun () -> Core.read_reg core r));
      Alcotest.(check bool) (Printf.sprintf "write_reg %d" r) true
        (raises (fun () -> Core.write_reg core r 1L)))
    [ -1; 16; max_int; min_int; 1 lsl 60 ];
  Alcotest.(check (list int64)) "registers untouched" (List.init 16 (fun _ -> 0L))
    (List.init 16 (Core.read_reg core))

(* Every register holds any 64-bit value on its own: each extreme in
   every register, then all three rotated across the file so that
   neighbouring registers differ. *)
let test_context_round_trips_extremes () =
  let core, _, _ = load (make_core ()) (plain_header ^ "start:\n  halt\n") in
  ignore (Core.run core ~fuel:10);
  let ctx = Core.save_context core in
  let extremes = [| Int64.min_int; Int64.max_int; -1L |] in
  let round_trip regs =
    Core.load_context core { ctx with Core.ctx_regs = regs };
    Alcotest.(check (array int64))
      "save_context" regs (Core.save_context core).Core.ctx_regs;
    Alcotest.(check (list int64)) "read_reg" (Array.to_list regs)
      (List.init 16 (Core.read_reg core))
  in
  Array.iter (fun v -> round_trip (Array.make 16 v)) extremes;
  for shift = 0 to 2 do
    round_trip (Array.init 16 (fun r -> extremes.((r + shift) mod 3)))
  done;
  let descending = Array.init 16 (fun r -> Int64.of_int (-r)) in
  Array.iteri (Core.write_reg core) descending;
  Alcotest.(check (array int64)) "write_reg then save_context" descending
    (Core.save_context core).Core.ctx_regs

let test_power_up_zeroes_registers () =
  let core, _, _ = load (make_core ()) (plain_header ^ "start:\n  halt\n") in
  ignore (Core.run core ~fuel:10);
  for r = 0 to 15 do
    Core.write_reg core r (Int64.of_int (r + 1))
  done;
  Core.power_down core;
  Core.power_up core ~reset_pc:0;
  Core.pause core;
  Alcotest.(check (list int64)) "all zero" (List.init 16 (fun _ -> 0L))
    (List.init 16 (Core.read_reg core))

let test_single_step () =
  let core, _, _ =
    load (make_core ()) (plain_header ^ "start:\n  movi r1, 1\n  movi r2, 2\n  halt\n")
  in
  Core.pause core;
  Alcotest.(check bool) "step jmp" true (Core.single_step core);   (* entry jmp *)
  Alcotest.(check bool) "step movi1" true (Core.single_step core);
  Alcotest.(check int64) "r1 set" 1L (Core.read_reg core 1);
  Alcotest.(check int64) "r2 not yet" 0L (Core.read_reg core 2);
  Alcotest.(check bool) "still halted" true
    (match Core.status core with Core.Halted _ -> true | _ -> false);
  Alcotest.(check bool) "step movi2" true (Core.single_step core);
  Alcotest.(check int64) "r2 set" 2L (Core.read_reg core 2)

let test_power_down_up () =
  let core, _, _ = load (make_core ()) (plain_header ^ "start:\n  movi r1, 9\n  halt\n") in
  ignore (Core.run core ~fuel:10);
  Core.power_down core;
  Alcotest.(check bool) "off" true (Core.status core = Core.Powered_off);
  Alcotest.(check bool) "no steps when off" true (Core.run core ~fuel:10 = 0);
  Core.power_up core ~reset_pc:0;
  Alcotest.(check bool) "running again" true (Core.status core = Core.Running);
  ignore (Core.run core ~fuel:10);
  Alcotest.(check int64) "re-ran" 9L (Core.read_reg core 1)

let test_power_down_requires_halt () =
  let core, _, _ = load (make_core ()) (plain_header ^ "start:\n  jmp @start\n") in
  Alcotest.check_raises "must pause first"
    (Invalid_argument "Core.power_down: pause the core first") (fun () ->
      Core.power_down core)

let test_irq_doorbell_reaches_sink () =
  let core, _, _ =
    load (make_core ()) (plain_header ^ "start:\n  irq 5\n  irq 6\n  halt\n")
  in
  let lines = ref [] in
  Core.set_irq_sink core (fun ~line -> lines := line :: !lines);
  ignore (Core.run core ~fuel:10);
  Alcotest.(check (list int)) "lines raised" [ 5; 6 ] (List.rev !lines)

let test_irq_without_sink_is_bad_instruction () =
  let core, _, _ = load (make_core ()) (plain_header ^ "start:\n  irq 1\n  halt\n") in
  ignore (Core.run core ~fuel:10);
  Alcotest.(check bool) "no wire" true
    (halted_with core (Core.Unhandled_exception Isa.Bad_instruction))

let test_interrupt_delivery () =
  (* The core spins until the irq-reply handler sets r9. *)
  let src =
    header ~div_handler:"0" ~pf_handler:"0" ~irq_handler:"@on_irq" ~bad_handler:"0"
    ^ {|
start:
  movi r8, 1
spin:
  beq r9, r0, @spin
  halt
on_irq:
  movi r9, 1
  iret
|}
  in
  let core, _, _ = load (make_core ()) src in
  ignore (Core.run core ~fuel:50);
  Alcotest.(check bool) "still spinning" true (Core.status core = Core.Running);
  Core.raise_interrupt core ~vector:Isa.vector_irq_reply;
  ignore (Core.run core ~fuel:50);
  Alcotest.(check bool) "woken and halted" true (halted_with core Core.Halt_instruction)

let test_double_fault_halts () =
  (* Page-fault handler itself page-faults. *)
  let src =
    header ~div_handler:"0" ~pf_handler:"@handler" ~irq_handler:"0" ~bad_handler:"0"
    ^ {|
start:
  movi r1, 999999
  load r2, r1, 0    ; first fault
  halt
handler:
  load r2, r1, 0    ; faults again inside the handler
  iret
|}
  in
  let core, _, _ = load (make_core ()) src in
  ignore (Core.run core ~fuel:100);
  Alcotest.(check bool) "double fault" true (halted_with core Core.Double_fault)

let test_rdcycle_monotonic_and_cache_warmth () =
  (* Time two reads of the same address; the second must be cheaper. *)
  let src =
    plain_header
    ^ Printf.sprintf
        {|
start:
  movi r1, %d
  rdcycle r2
  load r5, r1, 0
  rdcycle r3
  load r5, r1, 0
  rdcycle r4
  sub r6, r3, r2   ; cold duration
  sub r7, r4, r3   ; warm duration
  halt
|}
        data_base
  in
  let core, _, _ = load (make_core ()) src in
  ignore (Core.run core ~fuel:100);
  let cold = Core.read_reg core 6 and warm = Core.read_reg core 7 in
  Alcotest.(check bool) "cold > warm" true (Int64.compare cold warm > 0)

let test_clear_microarch_state_recools_cache () =
  let src =
    plain_header
    ^ Printf.sprintf
        {|
start:
  movi r1, %d
  load r5, r1, 0
  halt
|}
        data_base
  in
  let core, _, _ = load (make_core ()) src in
  ignore (Core.run core ~fuel:100);
  let h = Core.hierarchy core in
  let warm = Hierarchy.touch h ~addr:data_base in
  Core.clear_microarch_state core;
  let cold = Hierarchy.touch h ~addr:data_base in
  Alcotest.(check bool) "flush recools" true (cold > warm)

let test_branch_predictor_trains () =
  let b = Bpred.create () in
  (* A loop branch taken repeatedly becomes cheap. *)
  let costs = List.init 10 (fun _ -> Bpred.predict_and_update b ~pc:100 ~taken:true) in
  Alcotest.(check int) "trained cost" 1 (List.nth costs 9);
  Alcotest.(check bool) "initial mispredict" true (List.nth costs 0 > 1)

let test_retire_hook_observes () =
  let core, _, _ =
    load (make_core ()) (plain_header ^ "start:\n  movi r1, 1\n  nop\n  halt\n")
  in
  let count = ref 0 in
  Core.add_retire_hook core (fun ~pc:_ _ -> incr count);
  ignore (Core.run core ~fuel:100);
  (* jmp + movi + nop + halt = 4 retired *)
  Alcotest.(check int) "retired" 4 !count;
  Alcotest.(check int) "matches counter" 4 (Core.instructions_retired core)

let test_movhi_builds_large_constants () =
  let core, dram, _ =
    load (make_core ())
      (plain_header
      ^ Printf.sprintf
          {|
start:
  movi r1, 1
  movhi r1, 2      ; r1 = 1 lor (2 lsl 32)
  movi r4, %d
  store r4, r1, 0
  halt
|}
          data_base)
  in
  ignore (Core.run core ~fuel:100);
  Alcotest.(check int64) "large constant" (Int64.add 1L (Int64.shift_left 2L 32))
    (Dram.read dram data_base)

(* ----------------------- Transient execution ------------------------ *)

(* A minimal bounds-check gadget driven like the Spectre module drives
   it: train and attack at the SAME branch pc by re-invoking the gadget
   with different r1. *)
let transient_gadget =
  plain_header
  ^ Printf.sprintf
      {|
start:
  halt               ; entry unused; the driver jumps straight to @gadget
gadget:
  bge  r1, r2, @reject
  movi r3, %d
  movi r4, 8
  mul  r5, r1, r4
  add  r3, r3, r5
  load r6, r3, 0     ; touches data_base + r1*8
reject:
  halt
|}
      data_base

let drive_gadget core p x =
  let gadget = Asm.symbol p "gadget" in
  Core.set_pc core gadget;
  Core.write_reg core 1 (Int64.of_int x);
  Core.resume core;
  ignore (Core.run core ~fuel:50);
  Core.pause core

let test_transient_load_touches_cache_but_not_registers () =
  let core, _, p = load (make_core ()) transient_gadget in
  Core.pause core;
  Core.write_reg core 2 4L (* bound *);
  (* Train toward "in bounds" (branch not taken). *)
  for _ = 1 to 4 do
    drive_gadget core p 0
  done;
  let h = Core.hierarchy core in
  Hierarchy.flush_line h ~addr:(data_base + 64);
  Core.write_reg core 6 0L;
  (* Out of bounds: architecturally rejected, transiently leaky. *)
  drive_gadget core p 8;
  Alcotest.(check int64) "r6 never written architecturally" 0L (Core.read_reg core 6);
  let cost = Hierarchy.touch h ~addr:(data_base + 64) in
  Alcotest.(check bool) "line is warm (speculative touch)" true (cost <= 2)

let test_speculation_depth_zero_disables () =
  let core, _, p = load (make_core ()) transient_gadget in
  Core.set_speculation_depth core 0;
  Core.pause core;
  Core.write_reg core 2 4L;
  for _ = 1 to 4 do
    drive_gadget core p 0
  done;
  let h = Core.hierarchy core in
  Hierarchy.flush_line h ~addr:(data_base + 64);
  drive_gadget core p 8;
  let cost = Hierarchy.touch h ~addr:(data_base + 64) in
  Alcotest.(check bool) "line stays cold without speculation" true (cost > 2)

(* ------------------------- Flight recorder -------------------------- *)

module Flight_recorder = Guillotine_microarch.Flight_recorder

let test_flight_recorder_captures_final_approach () =
  let core, _, p =
    load (make_core ())
      (plain_header
      ^ {|
start:
  movi r1, 999999
  load r2, r1, 0    ; page fault, no handler: halts
  halt
|})
  in
  ignore p;
  let fr = Flight_recorder.attach core ~depth:8 () in
  ignore (Core.run core ~fuel:100);
  Alcotest.(check bool) "halted on fault" true
    (match Core.status core with
    | Core.Halted (Core.Unhandled_exception _) -> true
    | _ -> false);
  (* The recorder shows the jump in and the movi; the faulting load never
     retired (traps abort before retirement). *)
  let entries = Flight_recorder.dump fr in
  Alcotest.(check int) "jmp + movi retired" 2 (List.length entries);
  (match entries with
  | [ e1; e2 ] ->
    Alcotest.(check int) "entry jmp at 0" 0 e1.Flight_recorder.pc;
    Alcotest.(check bool) "then the movi" true
      (match e2.Flight_recorder.instr with Isa.Movi (1, 999999) -> true | _ -> false)
  | _ -> Alcotest.fail "dump shape");
  Alcotest.(check int) "total observed" 2 (Flight_recorder.recorded fr)

let test_flight_recorder_wraps () =
  let core, _, _ =
    load (make_core ()) (plain_header ^ "start:
  movi r1, 1
loop:
  jmp @loop
")
  in
  let fr = Flight_recorder.attach core ~depth:4 () in
  ignore (Core.run core ~fuel:100);
  Alcotest.(check int) "depth-capped" 4 (List.length (Flight_recorder.dump fr));
  Alcotest.(check int) "all observed" 100 (Flight_recorder.recorded fr);
  (* The ring now holds only the spin loop. *)
  List.iter
    (fun e ->
      match e.Flight_recorder.instr with
      | Isa.Jmp _ -> ()
      | i -> Alcotest.failf "unexpected %s" (Isa.to_string i))
    (Flight_recorder.dump fr);
  Flight_recorder.clear fr;
  Alcotest.(check int) "cleared" 0 (List.length (Flight_recorder.dump fr))

let test_multiple_retire_hooks_coexist () =
  let core, _, _ =
    load (make_core ()) (plain_header ^ "start:
  nop
  nop
  halt
")
  in
  let fr = Flight_recorder.attach core ~depth:8 () in
  let count = ref 0 in
  Core.add_retire_hook core (fun ~pc:_ _ -> incr count);
  ignore (Core.run core ~fuel:100);
  Alcotest.(check int) "recorder saw all" 4 (Flight_recorder.recorded fr);
  Alcotest.(check int) "counter saw all" 4 !count

(* ------------------- Differential testing vs reference -------------- *)

(* A reference evaluator for straight-line programs: the simplest
   possible semantics, no MMU, no caches, no timing.  Instruction [i]
   sits at pc [i]; memory is the data page's words, zero until stored.
   Any divergence from the Core's architectural results is a simulator
   bug. *)
let reference_eval instrs =
  let regs = Array.make 16 0L in
  let mem = Hashtbl.create 8 in
  List.iteri
    (fun pc i ->
      let open Guillotine_isa.Isa in
      match i with
      | Movi (rd, v) -> regs.(rd) <- Int64.of_int v
      | Movhi (rd, v) ->
        regs.(rd) <- Int64.logor regs.(rd) (Int64.shift_left (Int64.of_int v) 32)
      | Mov (rd, rs) -> regs.(rd) <- regs.(rs)
      | Add (rd, a, b) -> regs.(rd) <- Int64.add regs.(a) regs.(b)
      | Sub (rd, a, b) -> regs.(rd) <- Int64.sub regs.(a) regs.(b)
      | Mul (rd, a, b) -> regs.(rd) <- Int64.mul regs.(a) regs.(b)
      | Div (rd, a, b) -> regs.(rd) <- Int64.div regs.(a) regs.(b)
      | Rem (rd, a, b) -> regs.(rd) <- Int64.rem regs.(a) regs.(b)
      | And_ (rd, a, b) -> regs.(rd) <- Int64.logand regs.(a) regs.(b)
      | Or_ (rd, a, b) -> regs.(rd) <- Int64.logor regs.(a) regs.(b)
      | Xor_ (rd, a, b) -> regs.(rd) <- Int64.logxor regs.(a) regs.(b)
      | Shl (rd, a, b) ->
        regs.(rd) <- Int64.shift_left regs.(a) (Int64.to_int regs.(b) land 63)
      | Shr (rd, a, b) ->
        regs.(rd) <- Int64.shift_right_logical regs.(a) (Int64.to_int regs.(b) land 63)
      | Store (rd, rs, off) -> Hashtbl.replace mem (Int64.to_int regs.(rd) + off) regs.(rs)
      | Load (rd, rs, off) ->
        regs.(rd) <-
          Option.value ~default:0L (Hashtbl.find_opt mem (Int64.to_int regs.(rs) + off))
      | Jal (rd, target) ->
        if target <> pc + 1 then invalid_arg "reference_eval: jal leaves the line";
        regs.(rd) <- Int64.of_int (pc + 1)
      | Nop -> ()
      | _ -> invalid_arg "reference_eval: not straight-line")
    instrs;
  (regs, mem)

let gen_alu_instr =
  let open QCheck.Gen in
  let reg = int_range 0 15 in
  let imm = int_range (-100000) 100000 in
  oneof
    [
      map2 (fun r v -> Isa.Movi (r, v)) reg imm;
      map2 (fun r v -> Isa.Movhi (r, v)) reg imm;
      map2 (fun a b -> Isa.Mov (a, b)) reg reg;
      map3 (fun a b c -> Isa.Add (a, b, c)) reg reg reg;
      map3 (fun a b c -> Isa.Sub (a, b, c)) reg reg reg;
      map3 (fun a b c -> Isa.Mul (a, b, c)) reg reg reg;
      map3 (fun a b c -> Isa.And_ (a, b, c)) reg reg reg;
      map3 (fun a b c -> Isa.Or_ (a, b, c)) reg reg reg;
      map3 (fun a b c -> Isa.Xor_ (a, b, c)) reg reg reg;
      map3 (fun a b c -> Isa.Shl (a, b, c)) reg reg reg;
      map3 (fun a b c -> Isa.Shr (a, b, c)) reg reg reg;
      return Isa.Nop;
    ]

(* One generated step is a short sequence that keeps the program
   straight-line and trap-free over all 16 registers: a divide loads its
   non-zero divisor first (one case divides [min_int] by -1), memory
   traffic loads its base into the data page first, and a [jal]'s target
   is fixed to the next pc once the program is laid out ([layout]). *)
let gen_step =
  let open QCheck.Gen in
  let reg = int_range 0 15 in
  let divisor =
    oneof [ oneofl [ -1; 1; 2; 3; -7; 0x7FFF_FFFF; -0x8000_0000 ]; int_range 1 100000 ]
  in
  let slot = int_range 0 3 in
  let other r = map (fun k -> (r + 1 + k) mod 16) (int_range 0 14) in
  let divide =
    oneofl [ (fun rd a d -> Isa.Div (rd, a, d)); (fun rd a d -> Isa.Rem (rd, a, d)) ]
  in
  frequency
    [
      (8, map (fun i -> [ i ]) gen_alu_instr);
      (* Movhi with a negative immediate: sets the top 32 bits, a value
         no Movi reaches. *)
      ( 2,
        map2
          (fun r v -> [ Isa.Movhi (r, v) ])
          reg
          (oneof [ oneofl [ -1; -0x8000_0000 ]; int_range (-0x8000_0000) (-1) ]) );
      ( 2,
        map3
          (fun (rd, a, d) v op -> [ Isa.Movi (d, v); op rd a d ])
          (triple reg reg reg) divisor divide );
      ( 1,
        reg >>= fun a ->
        other a >>= fun d ->
        map2
          (fun rd op ->
            [ Isa.Movi (a, 0); Isa.Movhi (a, -0x8000_0000); Isa.Movi (d, -1); op rd a d ])
          reg divide );
      ( 2,
        map3
          (fun b s k -> [ Isa.Movi (b, data_base); Isa.Store (b, s, k) ])
          reg reg slot );
      ( 2,
        map3
          (fun b d k -> [ Isa.Movi (b, data_base); Isa.Load (d, b, k) ])
          reg reg slot );
      (1, map (fun d -> [ Isa.Jal (d, 0) ]) reg);
    ]

let layout steps =
  List.mapi
    (fun pc i -> match i with Isa.Jal (d, _) -> Isa.Jal (d, pc + 1) | i -> i)
    (List.concat steps)

(* Run [instrs] to its halt on a fresh core, from pc 0 with no header
   (code on pages 0-1, data on page 4): interpreting, or translating
   from the vet layer's block plan as an installed guest would.
   Returns all 16 registers and the data page's first words. *)
let run_on_core ~jit instrs =
  let dram = Dram.create ~size:(4 * 1024) in
  let hierarchy = Hierarchy.create ~dram () in
  let core =
    Core.create ~id:0 ~kind:Core.Model_core ~hierarchy
      ~mode:{ Core.default_mode with Core.jit } ()
  in
  let map vpage perm =
    match Mmu.map (Core.mmu core) ~vpage ~frame:vpage perm with
    | Ok () -> ()
    | Error _ -> assert false
  in
  map 0 Mmu.perm_rx;
  map 1 Mmu.perm_rx;
  map 4 Mmu.perm_rw;
  let program = Asm.instrs (instrs @ [ Isa.Halt ]) in
  Dram.load_program dram program;
  let bm = Guillotine_vet.Cfg.block_map (Guillotine_vet.Cfg.build ~code_pages:2 program) in
  Core.install_jit core
    {
      Guillotine_microarch.Jit.code_words = bm.Guillotine_vet.Cfg.map_code_words;
      leaders = bm.Guillotine_vet.Cfg.map_leaders;
      pcs = bm.Guillotine_vet.Cfg.map_pcs;
    };
  ignore (Core.run core ~fuel:1_000);
  ( Core.status core = Core.Halted Core.Halt_instruction,
    (Core.jit_stats core).Guillotine_microarch.Jit.translations > 0,
    List.init 16 (Core.read_reg core),
    List.init 4 (fun k -> Dram.read dram (data_base + k)) )

let prop_core_matches_reference =
  QCheck.Test.make ~name:"core agrees with reference on random ALU programs"
    ~count:150
    (QCheck.make
       QCheck.Gen.(map layout (list_size (1 -- 60) gen_step))
       ~print:(fun is -> String.concat "; " (List.map Isa.to_string is)))
    (fun instrs ->
      let regs, mem = reference_eval instrs in
      let expected =
        ( Array.to_list regs,
          List.init 4 (fun k ->
              Option.value ~default:0L (Hashtbl.find_opt mem (data_base + k))) )
      in
      List.for_all
        (fun jit ->
          let halted, translated, core_regs, data = run_on_core ~jit instrs in
          halted && translated = jit && (core_regs, data) = expected)
        [ false; true ])

let () =
  Alcotest.run "microarch"
    [
      ( "execution",
        [
          Alcotest.test_case "arithmetic program" `Quick test_arithmetic_program;
          Alcotest.test_case "loop and branches" `Quick test_loop_and_branches;
          Alcotest.test_case "movhi large constants" `Quick
            test_movhi_builds_large_constants;
        ] );
      ( "traps",
        [
          Alcotest.test_case "div/0 unhandled halts" `Quick
            test_div_by_zero_unhandled_halts;
          Alcotest.test_case "div/0 handled resumes" `Quick
            test_div_by_zero_handled_resumes;
          Alcotest.test_case "trap ABI registers" `Quick test_trap_abi_registers;
          Alcotest.test_case "store to code faults" `Quick test_store_to_code_page_faults;
          Alcotest.test_case "fetch from data faults" `Quick
            test_fetch_from_data_page_faults;
          Alcotest.test_case "code injection blocked" `Quick
            test_code_injection_blocked_end_to_end;
          Alcotest.test_case "bad instruction halts" `Quick test_bad_instruction_halts;
          Alcotest.test_case "double fault halts" `Quick test_double_fault_halts;
        ] );
      ( "control-plane",
        [
          Alcotest.test_case "data watchpoint" `Quick
            test_data_watchpoint_halts_and_resumes;
          Alcotest.test_case "code watchpoint" `Quick test_code_watchpoint;
          Alcotest.test_case "pause/inspect/modify/resume" `Quick
            test_pause_inspect_modify_resume;
          Alcotest.test_case "reg access requires halt" `Quick
            test_reg_access_requires_halt;
          Alcotest.test_case "reg index out of range" `Quick test_reg_index_out_of_range;
          Alcotest.test_case "context round-trips extremes" `Quick
            test_context_round_trips_extremes;
          Alcotest.test_case "power up zeroes registers" `Quick
            test_power_up_zeroes_registers;
          Alcotest.test_case "single step" `Quick test_single_step;
          Alcotest.test_case "power down/up" `Quick test_power_down_up;
          Alcotest.test_case "power down requires halt" `Quick
            test_power_down_requires_halt;
        ] );
      ( "interrupts",
        [
          Alcotest.test_case "doorbell reaches sink" `Quick
            test_irq_doorbell_reaches_sink;
          Alcotest.test_case "no sink = bad instruction" `Quick
            test_irq_without_sink_is_bad_instruction;
          Alcotest.test_case "interrupt delivery" `Quick test_interrupt_delivery;
        ] );
      ( "transient",
        [
          Alcotest.test_case "touches cache, not registers" `Quick
            test_transient_load_touches_cache_but_not_registers;
          Alcotest.test_case "depth 0 disables" `Quick
            test_speculation_depth_zero_disables;
        ] );
      ( "flight-recorder",
        [
          Alcotest.test_case "captures final approach" `Quick
            test_flight_recorder_captures_final_approach;
          Alcotest.test_case "wraps at depth" `Quick test_flight_recorder_wraps;
          Alcotest.test_case "hooks coexist" `Quick test_multiple_retire_hooks_coexist;
        ] );
      ( "differential",
        [ QCheck_alcotest.to_alcotest prop_core_matches_reference ] );
      ( "timing",
        [
          Alcotest.test_case "rdcycle + cache warmth" `Quick
            test_rdcycle_monotonic_and_cache_warmth;
          Alcotest.test_case "uarch clear recools" `Quick
            test_clear_microarch_state_recools_cache;
          Alcotest.test_case "branch predictor trains" `Quick
            test_branch_predictor_trains;
          Alcotest.test_case "retire hook observes" `Quick test_retire_hook_observes;
        ] );
    ]

module Dram = Guillotine_memory.Dram
module Mmu = Guillotine_memory.Mmu
module Hierarchy = Guillotine_memory.Hierarchy
module Core = Guillotine_microarch.Core
module Asm = Guillotine_isa.Asm

type outcome = { recovered : bool list; accuracy : float }

(* Word addresses.  One probe line is 8 words (the L1 line size). *)
let arr_base = 4 * 256 (* page 4: the bounds-checked array *)
let secret_base = 5 * 256 (* page 5: the victim's secret *)
let probe_base = 6 * 256 (* page 6: the attacker-probeable region *)
let bound = 16

(* The victim gadget: a correctly bounds-checked array read whose
   in-bounds path dereferences probe[arr[x] * 8].  r1 carries x. *)
let gadget_src =
  Printf.sprintf
    {|
  jmp @gadget
  .zero 7
  .zero 8
gadget:
  movi r2, %d
  bge  r1, r2, @reject  ; the bounds check
  movi r3, %d
  add  r3, r3, r1
  load r3, r3, 0        ; arr[x]
  movi r4, 8
  mul  r3, r3, r4
  movi r5, %d
  add  r3, r5, r3
  load r3, r3, 0        ; probe[arr[x] * 8]
reject:
  halt
|}
    bound arr_base probe_base

let attack ~secret ~mapped_secret () =
  let dram = Dram.create ~size:(16 * 1024) in
  let hierarchy = Hierarchy.create ~dram () in
  let core = Core.create ~id:0 ~kind:Core.Model_core ~hierarchy () in
  let mmu = Core.mmu core in
  let map vpage perm =
    match Mmu.map mmu ~vpage ~frame:vpage perm with
    | Ok () -> ()
    | Error _ -> assert false
  in
  map 0 Mmu.perm_rx;
  map 4 Mmu.perm_r (* the array *);
  map 6 Mmu.perm_r (* the probe region *);
  (* The decisive difference between the worlds: does the secret have an
     address on this core's bus at all? *)
  if mapped_secret then begin
    map 5 Mmu.perm_r;
    List.iteri
      (fun i b -> Dram.write dram (secret_base + i) (if b then 1L else 0L))
      secret
  end;
  let program = Asm.assemble_exn gadget_src in
  Dram.load_program dram program;
  let gadget = Asm.symbol program "gadget" in
  Core.pause core;
  let invoke x =
    Core.set_pc core gadget;
    Core.write_reg core 1 (Int64.of_int x);
    Core.resume core;
    ignore (Core.run core ~fuel:50);
    (* The gadget always halts (either path). *)
    match Core.status core with
    | Core.Halted Core.Halt_instruction -> ()
    | _ -> assert false
  in
  let recovered =
    List.mapi
      (fun i bit ->
        ignore bit;
        (* Train the bounds-check branch toward "in bounds". *)
        for _ = 1 to 4 do
          invoke 0
        done;
        (* Evict the probe lines the training run may have warmed. *)
        Hierarchy.flush_line hierarchy ~addr:probe_base;
        Hierarchy.flush_line hierarchy ~addr:(probe_base + 8);
        (* One out-of-bounds invocation: architecturally rejected,
           transiently leaky (or, without a mapping, silent). *)
        invoke (secret_base - arr_base + i);
        (* Probe: the warmer line names the bit. *)
        let t0 = Hierarchy.touch hierarchy ~addr:probe_base in
        let t1 = Hierarchy.touch hierarchy ~addr:(probe_base + 8) in
        t1 < t0)
      secret
  in
  { recovered; accuracy = Guillotine_util.Bits.accuracy secret recovered }

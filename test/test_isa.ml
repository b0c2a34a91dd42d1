(* Tests for the GRISC ISA: encode/decode round-trips (including a
   qcheck property over random instructions), assembler programs,
   labels, error reporting, and the disassembler. *)

open Guillotine_isa

let instr = Alcotest.testable (fun ppf i -> Isa.pp ppf i) ( = )

let all_sample_instrs =
  [
    Isa.Nop;
    Isa.Halt;
    Isa.Movi (3, 123456);
    Isa.Movi (0, -42);
    Isa.Movhi (7, 0x7FFF);
    Isa.Mov (1, 2);
    Isa.Add (1, 2, 3);
    Isa.Sub (4, 5, 6);
    Isa.Mul (7, 8, 9);
    Isa.Div (10, 11, 12);
    Isa.Rem (13, 14, 15);
    Isa.And_ (0, 1, 2);
    Isa.Or_ (3, 4, 5);
    Isa.Xor_ (6, 7, 8);
    Isa.Shl (9, 10, 11);
    Isa.Shr (12, 13, 14);
    Isa.Load (1, 2, 100);
    Isa.Load (1, 2, -100);
    Isa.Store (3, 4, 0);
    Isa.Jmp 999;
    Isa.Jr 5;
    Isa.Jal (15, 12);
    Isa.Beq (1, 2, 50);
    Isa.Bne (3, 4, 60);
    Isa.Blt (5, 6, 70);
    Isa.Bge (7, 8, 80);
    Isa.Irq 3;
    Isa.Iret;
    Isa.Rdcycle 9;
    Isa.Clflush (2, 8);
    Isa.Fence;
  ]

let test_encode_decode_samples () =
  List.iter
    (fun i ->
      match Encoding.decode (Encoding.encode i) with
      | Some i' -> Alcotest.check instr (Isa.to_string i) i i'
      | None -> Alcotest.fail (Isa.to_string i ^ ": failed to decode"))
    all_sample_instrs

let test_decode_garbage () =
  Alcotest.(check bool) "bad opcode" true (Encoding.decode 0xFF00000000000000L = None);
  Alcotest.(check bool) "reserved opcode" true
    (Encoding.decode 0x0900000000000000L = None)

let test_negative_immediates_roundtrip () =
  List.iter
    (fun v ->
      let i = Isa.Movi (1, v) in
      match Encoding.decode (Encoding.encode i) with
      | Some (Isa.Movi (1, v')) -> Alcotest.(check int) "imm" v v'
      | _ -> Alcotest.fail "decode shape")
    [ 0; 1; -1; 42; -42; 0x7FFF_FFFF; -0x8000_0000 ]

(* Generator over the FULL instruction space: every constructor, with
   operands drawn from the whole validated range (registers 0..15,
   signed 32-bit immediates hitting the boundary values, IRQ lines
   0..255).  The vetter consumes decoded programs wholesale, so the
   codec must be pinned across the entire space, not a sample. *)
let gen_instr =
  let open QCheck.Gen in
  let reg = int_range 0 15 in
  let imm =
    (* Bias toward boundaries: the sign-extension corners are where an
       encoding bug would live. *)
    oneof
      [
        int_range (-0x8000_0000) 0x7FFF_FFFF;
        oneofl [ 0; 1; -1; 0x7FFF_FFFF; -0x8000_0000; 0x7FFF_FFFE; -0x7FFF_FFFF ];
      ]
  in
  let line = int_range 0 255 in
  oneof
    [
      return Isa.Nop;
      return Isa.Halt;
      return Isa.Iret;
      return Isa.Fence;
      map2 (fun r v -> Isa.Movi (r, v)) reg imm;
      map2 (fun r v -> Isa.Movhi (r, v)) reg imm;
      map2 (fun a b -> Isa.Mov (a, b)) reg reg;
      map3 (fun a b c -> Isa.Add (a, b, c)) reg reg reg;
      map3 (fun a b c -> Isa.Sub (a, b, c)) reg reg reg;
      map3 (fun a b c -> Isa.Mul (a, b, c)) reg reg reg;
      map3 (fun a b c -> Isa.Div (a, b, c)) reg reg reg;
      map3 (fun a b c -> Isa.Rem (a, b, c)) reg reg reg;
      map3 (fun a b c -> Isa.And_ (a, b, c)) reg reg reg;
      map3 (fun a b c -> Isa.Or_ (a, b, c)) reg reg reg;
      map3 (fun a b c -> Isa.Xor_ (a, b, c)) reg reg reg;
      map3 (fun a b c -> Isa.Shl (a, b, c)) reg reg reg;
      map3 (fun a b c -> Isa.Shr (a, b, c)) reg reg reg;
      map3 (fun a b c -> Isa.Load (a, b, c)) reg reg imm;
      map3 (fun a b c -> Isa.Store (a, b, c)) reg reg imm;
      map (fun t -> Isa.Jmp t) imm;
      map (fun r -> Isa.Jr r) reg;
      map2 (fun r t -> Isa.Jal (r, t)) reg imm;
      map3 (fun a b t -> Isa.Beq (a, b, t)) reg reg imm;
      map3 (fun a b t -> Isa.Bne (a, b, t)) reg reg imm;
      map3 (fun a b t -> Isa.Blt (a, b, t)) reg reg imm;
      map3 (fun a b t -> Isa.Bge (a, b, t)) reg reg imm;
      map (fun l -> Isa.Irq l) line;
      map (fun r -> Isa.Mfepc r) reg;
      map (fun r -> Isa.Mtepc r) reg;
      map (fun r -> Isa.Rdcycle r) reg;
      map2 (fun r off -> Isa.Clflush (r, off)) reg imm;
    ]

let prop_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip (full space)" ~count:2000
    (QCheck.make gen_instr ~print:Isa.to_string)
    (fun i -> Encoding.decode (Encoding.encode i) = Some i)

(* The generator stays inside the validated space — otherwise the
   round-trip property would be vacuous about real programs. *)
let prop_generator_valid =
  QCheck.Test.make ~name:"generator emits validated instructions" ~count:2000
    (QCheck.make gen_instr ~print:Isa.to_string)
    (fun i -> Result.is_ok (Isa.validate i))

(* Words whose opcode byte names no instruction must decode to None —
   the model core turns exactly these into Bad_instruction traps. *)
let prop_decode_rejects_bad_opcodes =
  let valid_opcode op =
    (op >= 0x00 && op <= 0x04)
    || (op >= 0x10 && op <= 0x19)
    || (op >= 0x20 && op <= 0x21)
    || (op >= 0x30 && op <= 0x36)
    || (op >= 0x40 && op <= 0x46)
  in
  let gen =
    let open QCheck.Gen in
    let bad_opcode =
      (* valid opcodes all sit below 0x80, so shifting a valid draw up
         by 0x80 always lands on an unassigned one *)
      map
        (fun op -> if valid_opcode op then (op + 0x80) land 0xFF else op)
        (int_range 0 255)
    in
    map2
      (fun op low ->
        Int64.logor
          (Int64.shift_left (Int64.of_int op) 56)
          (Int64.logand (Int64.of_int low) 0xFF_FFFF_FFFF_FFFFL))
      bad_opcode (int_bound max_int)
  in
  QCheck.Test.make ~name:"decode rejects unknown opcodes" ~count:2000
    (QCheck.make gen ~print:(Printf.sprintf "0x%016Lx"))
    (fun w ->
      let op = Int64.to_int (Int64.shift_right_logical w 56) land 0xFF in
      if valid_opcode op then QCheck.assume_fail ()
      else Encoding.decode w = None)

(* The printer's output is valid assembler syntax: pretty-printing any
   instruction and reassembling it yields the original encoding. *)
let prop_pp_assemble_roundtrip =
  QCheck.Test.make ~name:"pp -> assemble roundtrip" ~count:500
    (QCheck.make gen_instr ~print:Isa.to_string)
    (fun i ->
      match Asm.assemble ("  " ^ Isa.to_string i) with
      | Ok p -> Array.length p.Asm.words = 1 && p.Asm.words.(0) = Encoding.encode i
      | Error _ -> false)

(* Which way an op runs must be behaviourally invisible: for any
   instruction in the validated space, executing it through the block
   runner leaves the core in exactly the state the interpreter's site
   cache produces — cycles, retirement count, registers, pc, and status,
   traps included.  Each side runs the instruction twice from the same
   pc: the first pass compiles its op, the second reuses it (or
   recompiles it, for stores that landed on the code).  [Core.run] is
   the entry point that dispatches to the runner; [Core.single_step]
   never does. *)
let prop_predecode_agrees =
  let module Machine = Guillotine_machine.Machine in
  let module Hypervisor = Guillotine_hv.Hypervisor in
  let module Core = Guillotine_microarch.Core in
  let observe ~jit i =
    let m = Machine.create ~mode:{ Core.default_mode with Core.jit } () in
    let hv = Hypervisor.create ~machine:m () in
    let p = Asm.instrs [ i ] in
    (match
       Hypervisor.install_program hv ~label:"qcheck" ~core:0 ~code_pages:4
         ~data_pages:4 p
     with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "install rejected");
    let c = Machine.model_core m 0 in
    ignore (Core.run c ~fuel:1);
    Core.pause c;
    Core.set_pc c p.Asm.origin;
    Core.resume c;
    ignore (Core.run c ~fuel:1);
    Core.pause c;
    ( ( Core.cycles c,
        Core.instructions_retired c,
        Core.get_pc c,
        List.init 16 (Core.read_reg c),
        Format.asprintf "%a" Core.pp_status (Core.status c) ),
      snd (Core.predecode_stats c),
      (Core.jit_stats c).Guillotine_microarch.Jit.translations )
  in
  QCheck.Test.make ~name:"decode and predecode-cache path agree (full space)"
    ~count:500
    (QCheck.make gen_instr ~print:Isa.to_string)
    (fun i ->
      let on, _, translations = observe ~jit:true i in
      let off, fills, _ = observe ~jit:false i in
      (* Non-vacuity: the runner really had a translation, and the
         interpreter really compiled into its site cache. *)
      translations >= 1 && fills >= 1 && on = off)

let test_validate_rejects_bad_regs () =
  Alcotest.(check bool) "reg 16" true (Result.is_error (Isa.validate (Isa.Mov (16, 0))));
  Alcotest.(check bool) "neg reg" true
    (Result.is_error (Isa.validate (Isa.Add (-1, 0, 0))));
  Alcotest.(check bool) "ok" true (Result.is_ok (Isa.validate (Isa.Mov (15, 0))))

let test_assemble_basic_program () =
  let src = {|
    ; compute 6*7 into r3 and store it
      movi r1, 6
      movi r2, 7
      mul  r3, r1, r2
      movi r4, @result
      store r4, r3, 0
      halt
    result:
      .word 0
  |} in
  let p = Asm.assemble_exn src in
  Alcotest.(check int) "7 words" 7 (Array.length p.Asm.words);
  Alcotest.(check int) "result label" 6 (Asm.symbol p "result")

let test_assemble_origin_offsets_labels () =
  let src = {|
    top:
      jmp @top
  |} in
  let p = Asm.assemble_exn ~origin:100 src in
  Alcotest.(check int) "label at origin" 100 (Asm.symbol p "top");
  match Encoding.decode p.Asm.words.(0) with
  | Some (Isa.Jmp 100) -> ()
  | _ -> Alcotest.fail "jmp target should be absolute 100"

let test_assemble_forward_reference () =
  let src = {|
      jmp @end
      nop
    end:
      halt
  |} in
  let p = Asm.assemble_exn src in
  match Encoding.decode p.Asm.words.(0) with
  | Some (Isa.Jmp 2) -> ()
  | _ -> Alcotest.fail "forward label"

let test_assemble_zero_directive () =
  let p = Asm.assemble_exn "  .zero 5\n  halt" in
  Alcotest.(check int) "6 words" 6 (Array.length p.Asm.words);
  for i = 0 to 4 do
    Alcotest.(check int64) "zeroed" 0L p.Asm.words.(i)
  done

let test_assemble_word_label () =
  let src = {|
    ptr:
      .word @ptr
  |} in
  let p = Asm.assemble_exn src in
  Alcotest.(check int64) "address constant" 0L p.Asm.words.(0)

let test_assemble_errors () =
  let expect_error src want_line =
    match Asm.assemble src with
    | Ok _ -> Alcotest.fail "expected error"
    | Error e -> Alcotest.(check int) "line" want_line e.Asm.line
  in
  expect_error "  frobnicate r1" 1;
  expect_error "  movi r99, 1" 1;
  expect_error "nop\n  jmp @nowhere" 2;
  expect_error "dup:\nnop\ndup:\n" 3;
  expect_error "  movi 5, 5" 1

(* Label failures carry the offending name structurally, not just
   embedded in prose. *)
let test_assemble_typed_label_errors () =
  (match Asm.assemble "nop\n  jmp @nowhere" with
  | Error { kind = Asm.Unknown_label name; line; _ } ->
    Alcotest.(check string) "unknown label name" "nowhere" name;
    Alcotest.(check int) "unknown label line" 2 line
  | Error _ -> Alcotest.fail "expected Unknown_label kind"
  | Ok _ -> Alcotest.fail "expected error");
  (match Asm.assemble "dup:\nnop\ndup:\n" with
  | Error { kind = Asm.Duplicate_label name; line; _ } ->
    Alcotest.(check string) "duplicate label name" "dup" name;
    Alcotest.(check int) "duplicate label line" 3 line
  | Error _ -> Alcotest.fail "expected Duplicate_label kind"
  | Ok _ -> Alcotest.fail "expected error");
  (match Asm.assemble "  movi r99, 1" with
  | Error { kind = Asm.Syntax; _ } -> ()
  | Error _ -> Alcotest.fail "expected Syntax kind"
  | Ok _ -> Alcotest.fail "expected error");
  (* assemble_exn raises the typed exception, not a bare Failure. *)
  match Asm.assemble_exn "  jal r1, @missing" with
  | exception Asm.Error { kind = Asm.Unknown_label name; _ } ->
    Alcotest.(check string) "exn carries label" "missing" name
  | exception _ -> Alcotest.fail "expected Asm.Error"
  | _ -> Alcotest.fail "expected raise"

let test_comments_and_blank_lines () =
  let p = Asm.assemble_exn "\n; full comment\n  nop # trailing\n\n  halt ; done\n" in
  Alcotest.(check int) "two instrs" 2 (Array.length p.Asm.words)

let test_disassemble_lists_instrs () =
  let p = Asm.assemble_exn "  movi r1, 5\n  halt" in
  let listing = Asm.disassemble p.Asm.words in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "movi shown" true (contains "movi r1, 5" listing);
  Alcotest.(check bool) "halt shown" true (contains "halt" listing)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "isa"
    [
      ( "encoding",
        [
          Alcotest.test_case "samples roundtrip" `Quick test_encode_decode_samples;
          Alcotest.test_case "garbage rejected" `Quick test_decode_garbage;
          Alcotest.test_case "negative immediates" `Quick
            test_negative_immediates_roundtrip;
          qc prop_roundtrip;
          qc prop_generator_valid;
          qc prop_decode_rejects_bad_opcodes;
          qc prop_pp_assemble_roundtrip;
          qc prop_predecode_agrees;
        ] );
      ( "validate",
        [ Alcotest.test_case "register bounds" `Quick test_validate_rejects_bad_regs ] );
      ( "assembler",
        [
          Alcotest.test_case "basic program" `Quick test_assemble_basic_program;
          Alcotest.test_case "origin offsets labels" `Quick
            test_assemble_origin_offsets_labels;
          Alcotest.test_case "forward reference" `Quick test_assemble_forward_reference;
          Alcotest.test_case ".zero" `Quick test_assemble_zero_directive;
          Alcotest.test_case ".word @label" `Quick test_assemble_word_label;
          Alcotest.test_case "errors located" `Quick test_assemble_errors;
          Alcotest.test_case "typed label errors" `Quick
            test_assemble_typed_label_errors;
          Alcotest.test_case "comments/blank lines" `Quick test_comments_and_blank_lines;
          Alcotest.test_case "disassembler" `Quick test_disassemble_lists_instrs;
        ] );
    ]

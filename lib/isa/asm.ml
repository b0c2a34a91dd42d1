type program = {
  words : int64 array;
  symbols : (string * int) list;
  origin : int;
}

type error_kind =
  | Syntax
  | Unknown_label of string
  | Duplicate_label of string

type error = { line : int; kind : error_kind; message : string }

exception Error of error

(* ------------------------------------------------------------------ *)
(* Lexing helpers                                                     *)
(* ------------------------------------------------------------------ *)

let strip_comment line =
  let cut = ref (String.length line) in
  String.iteri
    (fun i c -> if (c = ';' || c = '#') && i < !cut then cut := i)
    line;
  String.sub line 0 !cut

let tokenize line =
  (* Split on whitespace and commas; commas are pure separators. *)
  let buf = Buffer.create 16 in
  let toks = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      toks := Buffer.contents buf :: !toks;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\t' | ',' | '\r' -> flush ()
      | c -> Buffer.add_char buf c)
    line;
  flush ();
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Operand parsing                                                     *)
(* ------------------------------------------------------------------ *)

type operand =
  | Oreg of int
  | Oimm of int
  | Olabel of string

let parse_operand tok =
  let len = String.length tok in
  if len = 0 then Stdlib.Error "empty operand"
  else if tok.[0] = '@' then Ok (Olabel (String.sub tok 1 (len - 1)))
  else if tok.[0] = 'r' && len >= 2 && len <= 3 then begin
    match int_of_string_opt (String.sub tok 1 (len - 1)) with
    | Some n when n >= 0 && n < Isa.num_regs -> Ok (Oreg n)
    | _ -> Stdlib.Error (Printf.sprintf "bad register %S" tok)
  end
  else begin
    match int_of_string_opt tok with
    | Some v -> Ok (Oimm v)
    | None -> Stdlib.Error (Printf.sprintf "bad operand %S" tok)
  end

(* Statements produced by pass one. *)
type stmt =
  | Sinstr of string * operand list * int (* mnemonic, operands, line *)
  | Sword of operand * int
  | Szero of int * int

let err ?(kind = Syntax) line fmt =
  Printf.ksprintf (fun message -> raise (Error { line; kind; message })) fmt

(* ------------------------------------------------------------------ *)
(* Pass 1: collect labels and statements with addresses               *)
(* ------------------------------------------------------------------ *)

let pass1 ~origin source =
  let symbols = Hashtbl.create 32 in
  let stmts = ref [] in
  let addr = ref origin in
  let lines = String.split_on_char '\n' source in
  List.iteri
    (fun lineno raw ->
      let lineno = lineno + 1 in
      let line = strip_comment raw in
      let toks = tokenize line in
      let rec handle toks =
        match toks with
        | [] -> ()
        | t :: rest when String.length t > 1 && t.[String.length t - 1] = ':' ->
          let name = String.sub t 0 (String.length t - 1) in
          if Hashtbl.mem symbols name then
            err ~kind:(Duplicate_label name) lineno "duplicate label %S" name;
          Hashtbl.add symbols name !addr;
          handle rest
        | ".word" :: [ opnd ] -> (
          match parse_operand opnd with
          | Ok o ->
            stmts := Sword (o, lineno) :: !stmts;
            incr addr
          | Stdlib.Error m -> err lineno "%s" m)
        | ".zero" :: [ n ] -> (
          match int_of_string_opt n with
          | Some k when k >= 0 ->
            stmts := Szero (k, lineno) :: !stmts;
            addr := !addr + k
          | _ -> err lineno ".zero: bad count %S" n)
        | mnemonic :: operands ->
          let ops =
            List.map
              (fun tok ->
                match parse_operand tok with
                | Ok o -> o
                | Stdlib.Error m -> err lineno "%s" m)
              operands
          in
          stmts := Sinstr (String.lowercase_ascii mnemonic, ops, lineno) :: !stmts;
          incr addr
      in
      handle toks)
    lines;
  (Hashtbl.fold (fun k v acc -> (k, v) :: acc) symbols [], List.rev !stmts)

(* ------------------------------------------------------------------ *)
(* Pass 2: resolve labels, build instructions                          *)
(* ------------------------------------------------------------------ *)

let pass2 symbols stmts =
  let resolve line = function
    | Oimm v -> v
    | Olabel name -> (
      match List.assoc_opt name symbols with
      | Some a -> a
      | None -> err ~kind:(Unknown_label name) line "undefined label %S" name)
    | Oreg _ -> err line "expected immediate or label, got register"
  in
  let reg line = function
    | Oreg r -> r
    | Oimm _ | Olabel _ -> err line "expected register"
  in
  let words = ref [] in
  let emit w = words := w :: !words in
  List.iter
    (fun stmt ->
      match stmt with
      | Sword (o, line) -> emit (Int64.of_int (resolve line o))
      | Szero (k, _) ->
        for _ = 1 to k do
          emit 0L
        done
      | Sinstr (m, ops, line) ->
        let i =
          match (m, ops) with
          | "nop", [] -> Isa.Nop
          | "halt", [] -> Isa.Halt
          | "iret", [] -> Isa.Iret
          | "fence", [] -> Isa.Fence
          | "movi", [ rd; v ] -> Isa.Movi (reg line rd, resolve line v)
          | "movhi", [ rd; v ] -> Isa.Movhi (reg line rd, resolve line v)
          | "mov", [ rd; rs ] -> Isa.Mov (reg line rd, reg line rs)
          | "add", [ a; b; c ] -> Isa.Add (reg line a, reg line b, reg line c)
          | "sub", [ a; b; c ] -> Isa.Sub (reg line a, reg line b, reg line c)
          | "mul", [ a; b; c ] -> Isa.Mul (reg line a, reg line b, reg line c)
          | "div", [ a; b; c ] -> Isa.Div (reg line a, reg line b, reg line c)
          | "rem", [ a; b; c ] -> Isa.Rem (reg line a, reg line b, reg line c)
          | "and", [ a; b; c ] -> Isa.And_ (reg line a, reg line b, reg line c)
          | "or", [ a; b; c ] -> Isa.Or_ (reg line a, reg line b, reg line c)
          | "xor", [ a; b; c ] -> Isa.Xor_ (reg line a, reg line b, reg line c)
          | "shl", [ a; b; c ] -> Isa.Shl (reg line a, reg line b, reg line c)
          | "shr", [ a; b; c ] -> Isa.Shr (reg line a, reg line b, reg line c)
          | "load", [ rd; rs; off ] -> Isa.Load (reg line rd, reg line rs, resolve line off)
          | "store", [ rd; rs; off ] ->
            Isa.Store (reg line rd, reg line rs, resolve line off)
          | "jmp", [ t ] -> Isa.Jmp (resolve line t)
          | "jr", [ rs ] -> Isa.Jr (reg line rs)
          | "jal", [ rd; t ] -> Isa.Jal (reg line rd, resolve line t)
          | "beq", [ a; b; t ] -> Isa.Beq (reg line a, reg line b, resolve line t)
          | "bne", [ a; b; t ] -> Isa.Bne (reg line a, reg line b, resolve line t)
          | "blt", [ a; b; t ] -> Isa.Blt (reg line a, reg line b, resolve line t)
          | "bge", [ a; b; t ] -> Isa.Bge (reg line a, reg line b, resolve line t)
          | "irq", [ l ] -> Isa.Irq (resolve line l)
          | "rdcycle", [ rd ] -> Isa.Rdcycle (reg line rd)
          | "mfepc", [ rd ] -> Isa.Mfepc (reg line rd)
          | "mtepc", [ rs ] -> Isa.Mtepc (reg line rs)
          | "clflush", [ rs; off ] -> Isa.Clflush (reg line rs, resolve line off)
          | m, ops -> err line "unknown statement %S with %d operands" m (List.length ops)
        in
        (match Isa.validate i with
        | Ok () -> ()
        | Stdlib.Error m -> err line "%s" m);
        emit (Encoding.encode i))
    stmts;
  Array.of_list (List.rev !words)

let assemble ?(origin = 0) source =
  match pass1 ~origin source with
  | exception Error e -> Stdlib.Error e
  | symbols, stmts -> (
    match pass2 symbols stmts with
    | exception Error e -> Stdlib.Error e
    | words -> Ok { words; symbols; origin })

let assemble_exn ?origin source =
  match assemble ?origin source with
  | Ok p -> p
  | Stdlib.Error e -> raise (Error e)

let instrs is = { words = Encoding.encode_program is; symbols = []; origin = 0 }

let disassemble words =
  let buf = Buffer.create 256 in
  Array.iteri
    (fun i w ->
      let body =
        match Encoding.decode w with
        | Some instr -> Isa.to_string instr
        | None -> Printf.sprintf ".word 0x%Lx" w
      in
      Buffer.add_string buf (Printf.sprintf "%4d: %s\n" i body))
    words;
  Buffer.contents buf

let symbol p name =
  match List.assoc_opt name p.symbols with
  | Some a -> a
  | None -> raise Not_found

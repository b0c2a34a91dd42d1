type align = Left | Right

type t = {
  title : string;
  columns : (string * align) list;
  mutable rows : string list list; (* reversed *)
}

let create ~title ~columns = { title; columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- cells :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render t =
  let rows = List.rev t.rows in
  let headers = List.map fst t.columns in
  let widths =
    List.mapi
      (fun i (h, _) ->
        let w = ref (String.length h) in
        List.iter
          (fun cells ->
            let c = List.nth cells i in
            if String.length c > !w then w := String.length c)
          rows;
        !w)
      t.columns
  in
  let buf = Buffer.create 512 in
  let rule () =
    List.iter (fun w -> Buffer.add_string buf ("+" ^ String.make (w + 2) '-')) widths;
    Buffer.add_string buf "+\n"
  in
  let line cells =
    List.iteri
      (fun i c ->
        let w = List.nth widths i in
        let a = snd (List.nth t.columns i) in
        Buffer.add_string buf ("| " ^ pad a w c ^ " "))
      cells;
    Buffer.add_string buf "|\n"
  in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  rule ();
  line headers;
  rule ();
  List.iter line rows;
  rule ();
  Buffer.contents buf

let print t = print_string (render t)

let cell_f x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.3f" x

let cell_i = string_of_int

let cell_pct x = Printf.sprintf "%.1f%%" (100. *. x)

type t = int

let max = 4095

let equal = Int.equal
let compare = Int.compare
let hash t = t
let pp ppf t = Format.fprintf ppf "T%d" t
let to_string t = Format.asprintf "%a" pp t

"""Byte pins: SHA-256 digests of group files, canonical --json reports and
CLI stdout, each recorded before a change that had to leave it as it was
(first, the closure mod p and the lazy exact elements)."""

import hashlib
import json
import re

import pytest

from rotref.cli import main
from rotref.groups import (
    catalog_group,
    direct_sum,
    enumerate_degree4_catalog,
    group_to_json,
)


def _digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# group_to_json of every catalog group with I2(k), k <= 8
CATALOG_GROUP_SHA256 = {
    "A1x1x1x1": "470162b59a0f091e451f6979f06dcbb308ac5a121e914d3cdb394234fa4adcca",
    "A1xA1x1x1": "edbe697f254f6430a7b5811a55c9b21974a235efcb2c2912caa0e7e464bfb2aa",
    "A1xA1xA1x1": "8edc3b3d667ca83cb6b0c6e582e62a21e9c4c01cdaefc28424845614bd58d7a7",
    "A1xA1xA1xA1": "53bd7a6eefd9e5920adacefd8e00a6d3de6bbdc1d7107ede5e86efd7df8d0c5d",
    "A3x1": "35a6fdf8389f014362b8b6eb780ad2bfa29f02e601154aea2592f3409692fabe",
    "A3xA1": "f23ecd7ba9ed5ef70b9d664bbc18a1d0b0d56e294cb279c33bd081066e086da0",
    "A4": "6dcfce0e4cdd085d89faa6172a98def850a45200e9d13658f88f4127d3b554ac",
    "B3x1": "2353be37b3ddbc21753db5b1f531a3c94ec6547bff90feb8a68473298ea4a2d9",
    "B3xA1": "cf0c6f0b430b3e4264a014ebf0971145144c9a9e2da1c8fe838f3dd26e3f5cd1",
    "B4": "1dedf092b16f36e2b6f72dac459885bb72edec931a54b94764cbb3b36d00e1f5",
    "D4": "870296e5e35e3fa064f3eb35b4f8301793fd9f892b68f2331130699579e2c910",
    "F4": "9cf24b98d9d23e11314332a64b914f8434d39b9df8b175232bca4b90f00e106f",
    "H3x1": "940b3f4f11436fac2d35725d2732c442ae0b73dc8b8457da887c12edf3199142",
    "H3xA1": "22d7b9aa3faccc56907fcbf991a5feea6ee4fe4228079e711367b4c389ba0318",
    "H4": "2edb60d4a37a44b20d38416b3bfe6c51963469a395c9c22ef450dc0cc264a352",
    "I2(2)x1x1": "d53522cd9dc3a333d71fd4b03f15f0111c8f66966123c4108bb27df779ef4b6e",
    "I2(2)xA1x1": "9b9d12aefe32c8fa7f919f5a200fcddc8393e94659b60b040b7b2bfb5e97e46e",
    "I2(2)xA1xA1": "83722a87255c234ef1e94f266e12ab1a4d8f50969d2ca4c871a953e4f88be33a",
    "I2(2)xI2(2)": "853ec68c1b7e89799968643aebaeef34530958a0a15d2aaa42ad02f92d3682b1",
    "I2(2)xI2(3)": "c1a5fd6ce342a5cf748c7eaec085516942477b88061627d5ca0af2ea6f058dac",
    "I2(2)xI2(4)": "21cea21bd859d3cb6d5c263325d92c59ef5ea7e615352252cca9ac714d0e1c8f",
    "I2(2)xI2(5)": "3013d81b62c2a4756c18b4be48f69767a4bf21bb888ba4f9d7971bb23e255708",
    "I2(2)xI2(6)": "98d1ef6ce2bbccdfd119583cf9421ef410e736444de1fb69edf0747c7619f776",
    "I2(2)xI2(7)": "009ce8a685059738ec4e27d38f1f54d2a8790eab6fc21aac8800c0d019cf5eab",
    "I2(2)xI2(8)": "5b5925d76be6af005b95ed5af60f5c1f7e05e087e5950059e04aeff82d82c4bd",
    "I2(3)x1x1": "6f7e195680522cdbaf89f21e128b6e87948f8d578d734d3b2a898212c6aebfb2",
    "I2(3)xA1x1": "854f9c09f7816aa4b58a377d812fdde528a41bd0dbc3b48115844d47c7bcccec",
    "I2(3)xA1xA1": "3a88021a09d5f8467fc2effc7ccfeb3bee9aab71372ad399c3809c95d1324c0f",
    "I2(3)xI2(3)": "0177fa5b238b4baadf47657c40ec50da667e306398777f260b2ffefb98652fb8",
    "I2(3)xI2(4)": "b3f7df15299d5493bf1e7b224fe6550d5b0d553d306c08f4866cbe3c8afeaa27",
    "I2(3)xI2(5)": "57c829958ed5ca1a1e31e2b641301193e616d546e6c6bf0560c7ce53c820e290",
    "I2(3)xI2(6)": "168ad3a618ba0c39be1ea01c710ba8afc6ca59dae5fac707f0ca5a18c5e922ba",
    "I2(3)xI2(7)": "ecfa1e8a7fc1b7499d731e221c878300291dc6cbdccee2fe92e7385dac7742d0",
    "I2(3)xI2(8)": "b0fa30c5964b28ba2fbe09d492c0ed16d8aa7ee76c26758cb2ce3467ba0eed6f",
    "I2(4)x1x1": "479cd45e600de5138825ea274f1e460d60f4f7c9476cbd2ffdb2d01a17e67848",
    "I2(4)xA1x1": "0d70f7ed6d3c6505aab1b7fbc829f03ffae5950c526e24b03b4da5ecde60ed82",
    "I2(4)xA1xA1": "c3fbc1f5883e022b760e24a87c207e5130a0301827330a1d2e8362818e5c0a9c",
    "I2(4)xI2(4)": "f1d4ae383245d891b65cedd875497103c04080d9e65262c4491e6a3dcbc280fc",
    "I2(4)xI2(5)": "7e624a606982e4bdaced0fa3922e398b21d95a3296f145c7d0c0ef26ea59b7fe",
    "I2(4)xI2(6)": "bcb0c53be37e54e6494b21cf0a8a3eb37f0ac25017b37014426ae3ec03cb326c",
    "I2(4)xI2(7)": "434390ce330bad6ecc86d8247cb71cfe3a0f591ce95c5c412ff515dfec526fa9",
    "I2(4)xI2(8)": "c227a83e94109d702b68ed57d46c06e584da3e4759f0e70d934c1077db68eaee",
    "I2(5)x1x1": "208b51709baf00e75ea8e11ff743f3a2e9b0f0342f37df683160fed4dacdc821",
    "I2(5)xA1x1": "1d82d5f49ebd22474943bd7393baeeda5f15315a858e1df08fd472619e3ef0d9",
    "I2(5)xA1xA1": "608f10d6f73bb1a85d8c2557a461b57a286c95562980a249ad25f92140cd3775",
    "I2(5)xI2(5)": "ae4dfc28e787bca1e71a68efeff7437b599edec9fce5431304364e87f3587702",
    "I2(5)xI2(6)": "c73625f13effc0eadbd4234f963fb82019aca2bcb99de92b885499852ca9f9b3",
    "I2(5)xI2(7)": "635adc93c0087795a20c6a4436c245ff994727a8541130575fa05512b3b8f78f",
    "I2(5)xI2(8)": "b7eab34425ad4c9c1d13e60de6ba89be102fe7503efec67b7b388bca78a98137",
    "I2(6)x1x1": "8cc423a33ac0df2e369dce3c7d3b6d1b1d1ebff3c41528d2708844f36debf5a2",
    "I2(6)xA1x1": "14661da6927cc75694b4e3169df0c4887dc62796c503ca3895ebfab0beaed24d",
    "I2(6)xA1xA1": "7d1c8904d589028325db843af21717024c1d28addc2f4df417e14aa4897f693b",
    "I2(6)xI2(6)": "cae53fe1850ac09a3ee05e7a71e0a822d7a44082eb4098178174c7dfe13fa7fc",
    "I2(6)xI2(7)": "6d8a306a560c47d159df4514c1a826209085ff7fdeaded2b3a3eaf066fa828ee",
    "I2(6)xI2(8)": "78ffeea0a40e5b6fff181a2b637f8d841989b3f783e2f20c21c1a0f7ae4a5157",
    "I2(7)x1x1": "47ae117be0811a77fc88a946a000904ef542df3603852fd7c8deb4082bbbe5e2",
    "I2(7)xA1x1": "25ae4abdbdb36513028bd07398daa05a35898ec2ddccad673c975c2cae8b0b90",
    "I2(7)xA1xA1": "d7946bf7c60c802d8853340d4b1499e7505e11a8e7b96563f6ff311e35995ac5",
    "I2(7)xI2(7)": "9d0107142e54726ca9cf68526e14745525f03b6a0ee8808b88dc9d422b063087",
    "I2(7)xI2(8)": "da60b00b86b83fb638de3c0f5106f22d00b9a47935095e445b8c62907fbbaf94",
    "I2(8)x1x1": "5eb543f32abd45417aee3797958a4aec3c9759306cf96bd4bfa842e7297b1086",
    "I2(8)xA1x1": "d23674d61c43bfa99548d6f6352bd5c446f6914a09bd7379e61e95d4f842be48",
    "I2(8)xA1xA1": "8f232882664d58df7f0d928ae1e006b82ebd0c109e650724a379af1b9cf9d33a",
    "I2(8)xI2(8)": "5ad1abb01c517a11a5d604051ec145a85cc7309b4a49e2337704d4301de901a9",
}

# group_to_json of direct_sum(I2(p), I2(q)), 2 <= p, q <= 8
DIRECT_SUM_SHA256 = {
    (2, 2): "853ec68c1b7e89799968643aebaeef34530958a0a15d2aaa42ad02f92d3682b1",
    (2, 3): "c1a5fd6ce342a5cf748c7eaec085516942477b88061627d5ca0af2ea6f058dac",
    (2, 4): "21cea21bd859d3cb6d5c263325d92c59ef5ea7e615352252cca9ac714d0e1c8f",
    (2, 5): "3013d81b62c2a4756c18b4be48f69767a4bf21bb888ba4f9d7971bb23e255708",
    (2, 6): "98d1ef6ce2bbccdfd119583cf9421ef410e736444de1fb69edf0747c7619f776",
    (2, 7): "009ce8a685059738ec4e27d38f1f54d2a8790eab6fc21aac8800c0d019cf5eab",
    (2, 8): "5b5925d76be6af005b95ed5af60f5c1f7e05e087e5950059e04aeff82d82c4bd",
    (3, 2): "82f939ca37a6e6fa83c191914fb7edd9337ecfcd6361c9a2db83df724e4b8da3",
    (3, 3): "0177fa5b238b4baadf47657c40ec50da667e306398777f260b2ffefb98652fb8",
    (3, 4): "b3f7df15299d5493bf1e7b224fe6550d5b0d553d306c08f4866cbe3c8afeaa27",
    (3, 5): "57c829958ed5ca1a1e31e2b641301193e616d546e6c6bf0560c7ce53c820e290",
    (3, 6): "168ad3a618ba0c39be1ea01c710ba8afc6ca59dae5fac707f0ca5a18c5e922ba",
    (3, 7): "ecfa1e8a7fc1b7499d731e221c878300291dc6cbdccee2fe92e7385dac7742d0",
    (3, 8): "b0fa30c5964b28ba2fbe09d492c0ed16d8aa7ee76c26758cb2ce3467ba0eed6f",
    (4, 2): "10d3554436c4613f86ae8df7ee769bea4e4d1c841ee89a2d5fb254ec4d968ce5",
    (4, 3): "108c09357b3cfc7113e4f0682fc94a430f8d0f57a19c8d8068253109a012c910",
    (4, 4): "f1d4ae383245d891b65cedd875497103c04080d9e65262c4491e6a3dcbc280fc",
    (4, 5): "7e624a606982e4bdaced0fa3922e398b21d95a3296f145c7d0c0ef26ea59b7fe",
    (4, 6): "bcb0c53be37e54e6494b21cf0a8a3eb37f0ac25017b37014426ae3ec03cb326c",
    (4, 7): "434390ce330bad6ecc86d8247cb71cfe3a0f591ce95c5c412ff515dfec526fa9",
    (4, 8): "c227a83e94109d702b68ed57d46c06e584da3e4759f0e70d934c1077db68eaee",
    (5, 2): "be4c1d6bd238f062449030f77f1cf9990c967192f5f9da178413b30a590f082c",
    (5, 3): "43ccc93736dfbb0e1170ceca809ee8b769c5db5282aacf6f0d4a415581eba5be",
    (5, 4): "7fdf5803a012ede2baec14595c471b16e67131f948ce504f1d1a7e36fed4c725",
    (5, 5): "ae4dfc28e787bca1e71a68efeff7437b599edec9fce5431304364e87f3587702",
    (5, 6): "c73625f13effc0eadbd4234f963fb82019aca2bcb99de92b885499852ca9f9b3",
    (5, 7): "635adc93c0087795a20c6a4436c245ff994727a8541130575fa05512b3b8f78f",
    (5, 8): "b7eab34425ad4c9c1d13e60de6ba89be102fe7503efec67b7b388bca78a98137",
    (6, 2): "575a024ceeea76efeec19b5ccc19b1112c27aa8b1c7af1940d881ee13208a378",
    (6, 3): "94a8b706851a3dedfb4c056bcef27a8701aaba4ef231f9b553598d74e1f52167",
    (6, 4): "04224d2d461c0e6031adb9cbdc12a947c799518a50586d9f2eaf1691af9b9081",
    (6, 5): "70257cb727dbe63c3b78dd47fa3a7c27ae4872a93f3d0d00246bde50b66e4c43",
    (6, 6): "cae53fe1850ac09a3ee05e7a71e0a822d7a44082eb4098178174c7dfe13fa7fc",
    (6, 7): "6d8a306a560c47d159df4514c1a826209085ff7fdeaded2b3a3eaf066fa828ee",
    (6, 8): "78ffeea0a40e5b6fff181a2b637f8d841989b3f783e2f20c21c1a0f7ae4a5157",
    (7, 2): "1a2cb9792870a9e1858684008cecac5e7f6816564b50a0eda13e4180338b1370",
    (7, 3): "da54d9e2cf5b6c15a18f67c651a493c3e2c011cab3a0d74e01334d83ee6ec59a",
    (7, 4): "4c2a337df74c9c51dd148b85124a149862fd6be8cb729cb1bb94f80c354efc3c",
    (7, 5): "10d105e9c00828d9b0348f99bdb7963697b4982ef06f313d837aa4c6da4f4a13",
    (7, 6): "65804e434cadeaf6af1ca35d37ad36269c21afa9130224bf32bf0984146058de",
    (7, 7): "9d0107142e54726ca9cf68526e14745525f03b6a0ee8808b88dc9d422b063087",
    (7, 8): "da60b00b86b83fb638de3c0f5106f22d00b9a47935095e445b8c62907fbbaf94",
    (8, 2): "3fdf571edd3d895a1c28da8d3b90f6945f7939d49111df4d85365d77c1ab2c2d",
    (8, 3): "ff842f2aecadb1cf39c76de03dda50570bc959037cf72b239e6cd3d152df215f",
    (8, 4): "07a36924ecfaae6a852faec78edb329cf5b488c08bdf2238b37b7979857a14a5",
    (8, 5): "b32b2e22e018767d0e2e260815cb725af8979dff1cac0dca4cdb92e5a4902665",
    (8, 6): "09f31b149885d33c83776f16f384487cbdddbd7c727f92f8f097fcbea2e4a81a",
    (8, 7): "5d29de393d0fa372dee664246192fa03c2de587c01e118cf812fe7588638bf4e",
    (8, 8): "5ad1abb01c517a11a5d604051ec145a85cc7309b4a49e2337704d4301de901a9",
}

# `rotref ARGS --json PATH`: (exit code, SHA-256 of the file)
CLI_JSON_SHA256 = {
    "arrangement compute A3xA1 --method isotropy": (0, "1214a8c9e2d9c622d368d53ff5ea828b8217c3109af3dad37f400b38f835230a"),
    "arrangement compute B3xA1 --method isotropy": (0, "e35783956ceaae0248dbedaeb6f32b75c79e5ed46158fb2d024f20096aa03b4e"),
    "arrangement compute H3xA1 --method isotropy": (0, "78ad5bad88322d8db9085df62ead84e1a5cd5f7899736427e58473a9bd42b306"),
    "arrangement compute I2(5)xI2(8) --method isotropy": (0, "97befbf48440ce699b5aeb222cae8af29d7ebf75197cb60947e5e810f7135130"),
    "arrangement compute I2(7)xI2(8) --method isotropy": (0, "d05458ed460884399c402413a87f7a05c363f4268a4e9740de6328bd04ec2fa0"),
    # recorded before the isotropy lattice moved to F_p
    "arrangement compute B4 --method isotropy": (0, "db73adda54e9c7829faed056acdae97c4fad643fe43a2805ba8ee41a8e9f2b98"),
    "arrangement compute D4 --method isotropy": (0, "319a73e48d602efa17ac93fb4f7da12f1313e26e22e3e3e2ab0b05cdd0833b24"),
    "arrangement compute F4 --method isotropy": (0, "f7a14cc5d926d6f046e5694cf36879ad04dee119af403f7101aa15188de75453"),
    "catalog list --orders": (0, "4b72068058410ff80ae58eae12b1fb69aba1e35592ad38c17fb65e882d77746a"),
    "group show H3": (0, "4c99e301cf0749cdb077a6aee879d699cb17efec77f11d5f16e6eedfd20dd941"),
    "lemma-ag --m 10": (0, "731eaa85f22cc21ce16a72dcd91da47b4d00ea40ff8b1c4f3a372ecd113db49f"),
    "lemma-ag --m 11": (0, "e8a1ed6d71d1240d426f53923f55747f351b132a0532e71604c8bd84e027791e"),
    "lemma-ag --m 12": (0, "212d9f97171eb38f991cc70357bc979f08152fff07373bccf7f512027e5803fd"),
    "lemma-ag --m 2": (0, "29a386ef87682d21c335ff592885ae9a21f288c3bca51ddbf2c5188b77a249f8"),
    "lemma-ag --m 3": (0, "2cbc7511100fa5ec0fd3df29d27c9fe7a5febd0f3d1ab66b0f9fb7d46c5f48d6"),
    "lemma-ag --m 4": (0, "2515a3537d4640df372d148af9d6065f509f64fac278af86879f05a50c9411c4"),
    "lemma-ag --m 5": (0, "460dfb4df4c9a9b71304a627530d289f8a8754c2a5ce612a13972efa8590e513"),
    "lemma-ag --m 6": (0, "eb02a9ded56b24efbf13ba2bcf555a9bb0c5c8b580acb693e8147d573388f50c"),
    "lemma-ag --m 7": (0, "a70c70d759d8bf0fac3b5eee741dafc52fce7fddeacfee178207c82ed11eb014"),
    "lemma-ag --m 8": (0, "6642e9f1ba416a72ee0c25bb06ce725456e88a201094803cdcf1c5e107820c57"),
    "lemma-ag --m 9": (0, "d8d0c9a0f28a057223fc75dd9e183c2c97121d7f6cc2ec79d1ddec3ffc635c0c"),
    "rotation --m 10": (0, "95a7537fc9e17c539c5d15a26015e37ef7e255a4dc76b3abb61b037ba495a6a8"),
    "rotation --m 11": (0, "a28f441431d774a1c665554d0846e3878e9ac4a751e491ee0df109f725d1823e"),
    "rotation --m 12": (0, "684b36cae498ff385fef18877afe9a7408e734dfd2e0ca442b5e71ec6afa7f9c"),
    "rotation --m 2": (0, "e5a5bbc1a37486a9b1d4ac52d8727a8a1c3e2a26cb2ee3c6695ea113f71b2404"),
    "rotation --m 3": (0, "4bd92a5dd07e280f554db3607cef4f4b63c378c8b91882f6abf4704eb53e10a6"),
    "rotation --m 4": (0, "5f77a54b6a2e10886116860e61653cf6dfeb281d1ea0f5b482a74ba52de0028d"),
    "rotation --m 5": (0, "607e79902a1fcd6ed54cc6d34788b04b7274dbb3212c4d29bcb830d5adc33da5"),
    "rotation --m 6": (0, "436be635758b709a1264b516166639b610d75ef70c190eeddf8468d8351285b4"),
    "rotation --m 7": (0, "6f805facee07091684ae274bd9793a8bc1458717e0fdd4a2eb8f1ea0f386c101"),
    "rotation --m 8": (0, "76c6e435f5cbf62ad9e6abbe40211f437657475df3a5a2714055ec71041cc0a9"),
    "rotation --m 9": (0, "837126aa80ec7445db5d13ac102c666e6d7d8bb7492f119bfd2f16918812d984"),
    # recorded when part (i) of theorem came to check the eleven big-factor
    # groups only, and theorem lost --k-max
    "theorem --m 721": (0, "992655517722e8e1baf4ac9a9b663c63586df659083c0c63fabaa36f31ad4e0c"),
    # recorded when part (i) came to take one route for every m: the field
    # obstruction first, the computed arrangements only where the field
    # allows
    "theorem --m 3": (0, "6a057f8e961e5dd03d9b0ff87cb57f7695b876a8bc99b8796f09297f426a8a81"),
    "theorem --m 12": (0, "cbf7bfbee3ad650dc5c067c043c08e7ea385a1246ea17a089e0dd2ec936f920f"),
    "theorem --m 20": (0, "3bcb5eea934f0d1652f8148cf76b15460c455b4c95480632ce2ddbf40aca1a08"),
    # recorded before reflection arrangements came to count their members
    # from the F_p keys and to build exact flats only when they are read
    "threshold": (0, "712918125f67574c187b965f1794a7bd3fc0a9c97837733598bd988bc3569ca7"),
    "dichotomy --p 5 --q 7": (0, "b0f6cd50b374858eaefa5ec9395c006e84a6930b2af9f79cc6f13c9598b5cf00"),
    "dichotomy --p 8 --q 8": (0, "57f8721bf009ac540122ffa8ca03ff37fe280b81fd9eaaede024ec26dcfb20d4"),
    # recorded before the exact turns of the flat search went through
    # MatrixF.__matmul__
    "arrangement compute H4 --method reflection": (0, "9a59af4a7dd1480aed54f907501063d90db03480ccdb648da16a1c127a49999b"),
    "arrangement compute F4 --method reflection": (0, "c58ceeaaf5e6e4afe023d2457925ec4421c8f53e42929260d366f2968b308f4c"),
    "arrangement compute H3xA1 --method reflection": (0, "19529558116a71314f4a6ae5f93f8375afd6b26de29104641ac15d68049e3354"),
    "arrangement compute I2(5)xI2(8) --method reflection": (0, "5787e57c92eaedfafc979ca675324014bd453624a0e9c5faba45c68633ebea1a"),
    # recorded before every subcommand came to print and write through one
    # table and one emit
    "survey --m-min 2 --m-max 4 --k-max 4": (0, "6f481b1177fbef5b9f9c508e5e087104ed43f7ea28c6411ff3a3d66214d6b064"),
    "catalog list": (0, "2e587a50e8aeb97ad785f6c62c6319d39333951b754187e70f74be02b3ab125d"),
    "arrangement compute I2(3)xI2(5)": (0, "1637a3ed11aaa3ca5501142023261e9f9d1a7a882a9958580adbeada59c8fdef"),
}

# `rotref ARGS`: (exit code, SHA-256 of stdout with each "(<n> ms)" written
# "(N ms)"), recorded before the claim subcommands shared one code path
CLI_STDOUT_SHA256 = {
    "threshold": (0, "d7f926187821976fb156a44ed9b4802312b74367095bef8e57d4981011db1b5e"),
    "theorem --m 4": (1, "f3e9c68816dd939ea5d6110f5a1ea9d16e5897a4732d6763dd05fe82b6c8bf62"),
    "theorem --m 721": (0, "39aba43f9960004dfd4e5fa9fa62e88e2614c6c69d7e2d49ab5ad758bfb089c5"),
    "lemma-plane --m 6 --samples 200 --seed 0": (1, "5df75c4e3e20af2f0db8e61c1b3b9bd4fe7f5e481682d75dbd00a0d3f2d8984d"),
    "lemma-ag --m 1": (1, "4f0304c1efa661c5b9cdf045c91dcaa25899ac7460805288fa09b72ad84c95cd"),
    "rotation --m 5": (0, "8cf5c4e433bfd721562eb75cc5cb2bf943f81a7e5513ffb9e1027cd4381e73f2"),
    "dichotomy --p 3 --q 4": (0, "468120848dbe3d1a1ba4edfc5ae4a72a788e02bd8297ad96d5d5add9726b9ca3"),
    # recorded before every subcommand came to print and write through one
    # table and one emit
    "catalog list": (0, "b13feb58bae0f5775787f12b8bdc2e9e4443c5b4c516f66897a55be4c8fa4468"),
    "catalog list --k-max 3 --orders": (0, "37d73b2e70a9bdaa2cae4d247e4af9624f3db2f107b7a8185e2a56fe66176d69"),
    "group show H3": (0, "9948facda8dadb7bc53036e24c1395b1f676ce419c5e49bda9908b46defbd62f"),
    "group show I2(5)xA1x1": (0, "810b82a2888cf8c4062d1836403f2f9ff3e8f24cd5f10f807c08f16b1e703b47"),
    "arrangement compute I2(3)xI2(5)": (0, "81b608c24ea47be9b28b0cbfd2a1db0749692ec83b63e568432ca05f3041d1e4"),
    "arrangement compute H3xA1 --method isotropy": (0, "4c5c90408934d17bfa0c0ea3dd2151b36a2055b373f202729bf2c10c1f3e7ad7"),
    "arrangement compute A3xA1 --method reflection": (0, "ed07b87c68d7e9f6dfd9aaa73a14fabf94355be369db093c2a82c900dcb525a7"),
    "survey --m-min 2 --m-max 4 --k-max 4": (0, "27dc9daeeef3f39b1ee8875e131f9ffe7647ec708787afe34d0cad397f02e837"),
}


def test_catalog_group_json_bytes():
    groups = enumerate_degree4_catalog(8)
    assert {g.name: _digest(group_to_json(g)) for g in groups} == CATALOG_GROUP_SHA256


def test_direct_sum_json_bytes():
    got = {
        (p, q): _digest(
            group_to_json(direct_sum(catalog_group(f"I2({p})"), catalog_group(f"I2({q})")))
        )
        for p, q in DIRECT_SUM_SHA256
    }
    assert got == DIRECT_SUM_SHA256


@pytest.mark.parametrize("args", sorted(CLI_JSON_SHA256))
def test_cli_json_bytes(args, tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(args.split() + ["--json", str(path)])
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert (code, digest) == CLI_JSON_SHA256[args]


@pytest.mark.parametrize("args", sorted(CLI_STDOUT_SHA256))
def test_cli_stdout_bytes(args, capsys):
    code = main(args.split())
    out = re.sub(r"\(\d+ ms\)", "(N ms)", capsys.readouterr().out)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == CLI_STDOUT_SHA256[args]
